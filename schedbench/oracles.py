"""Independent reference values for the benchmark's output checks.

Nothing here imports ``subsetsched``: every value is recomputed from the
raw inputs (rate tables, arrival rates, horizons) by a different method
than the program uses, in plain Python floats and exact fractions.

- ``cramer``: L*(x) = sup_eta (eta x - L(eta)) by golden-section search on
  the concave dual objective, straight from the law's log-MGF (the program
  solves L'(eta) = x by bisection instead).
- ``jstar_sets``: the singleton exponent of every 1- and 2-user set through
  the Lagrange dual of the cost-per-drift problem (below), a 1-D root or a
  1-D concave maximization per set (the program searches the twists).
- ``subset_bound``: the subset-structured bound for given sub-state laws,
  with the sup over sampling frequencies taken exactly at the breakpoints
  of the piecewise-linear denominator.
- ``no_service_exponent``: the decay rate of the path on which no member
  of a subset is ever served, a ceiling on any policy's overflow decay.
- ``cumulative_arrivals`` / ``sampled_epochs``: closed forms.
- ``hitting_probability``: exhaustive enumeration of channel words.

Dual of the per-set problem.  With T = 1/w and x_i = c_i T the cost per
drift of a user set S is sum_i x_i L*_i((lambda_i T - 1)/x_i) subject to
sum_i x_i = T, a convex problem (perspective of L*_i).  Writing the
perspective as sup_eta (eta y - x L(eta)) and exchanging min and sup gives

    J_S = sup { sum_i theta_i : L_i(-theta_i) + sum_j lambda_j theta_j <= 0 }.

For one user this is the largest root of L(-theta) + lambda theta = 0.
For two users put u = sum_j lambda_j theta_j >= 0: each constraint reads
theta_i >= h_i(u), the root of L_i(-theta) = -u, and for fixed u the sum
of the thetas is largest when the user with the larger arrival rate sits
at its bound, so J_S = max_u u / lambda_lo + h_hi(u) (1 - lambda_hi /
lambda_lo) over the u where lambda_1 h_1(u) + lambda_2 h_2(u) <= u, a
concave function of u on an interval.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _law(table: Mapping[float, float]) -> list[tuple[float, float]]:
    """(rate, log-probability) atoms in increasing rate order."""
    return sorted((float(r), math.log(p)) for r, p in table.items() if p > 0.0)


def log_mgf(law: Sequence[tuple[float, float]], eta: float) -> float:
    """L(eta) = log sum_r p(r) exp(eta r), shifted by the largest exponent."""
    terms = [eta * r + logp for r, logp in law]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _golden_max(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        if b - a <= 1e-15 * max(1.0, abs(a)):
            break
    best = max((f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2))
    return best[1], best[0]


def cramer(table: Mapping[float, float], x: float) -> float:
    """Cramér rate L*(x) of a finite law, from its log-MGF alone."""
    law = _law(table)
    r_min, r_max = law[0][0], law[-1][0]
    if len(law) == 1:
        return 0.0 if x == r_min else math.inf
    if x < r_min or x > r_max:
        return math.inf
    if x == r_min:
        return -law[0][1]
    if x == r_max:
        return -law[-1][1]

    def dual(eta: float) -> float:
        return eta * x - log_mgf(law, eta)

    # the maximizer has the sign of x - mean; grow the bracket until the
    # objective turns down on its far side
    mean = sum(r * math.exp(logp) for r, logp in law)
    edge = 1.0 if x > mean else -1.0
    while dual(edge) > dual(edge / 2.0) and abs(edge) < 1e6:
        edge *= 2.0
    lo, hi = sorted((0.0, edge))
    return max(0.0, _golden_max(dual, lo, hi)[1])


def _bisect(g, lo: float, hi: float, iters: int = 200) -> float:
    """Last point with g <= 0 on [lo, hi], for g <= 0 up to one crossing and > 0 after."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return lo


def _theta_floor(law: Sequence[tuple[float, float]], u: float) -> float:
    """h(u): the theta >= 0 with L(-theta) = -u (inf when L(-theta) > -u always)."""
    if u <= 0.0:
        return 0.0
    if law[0][0] == 0.0 and -u <= law[0][1]:
        return math.inf
    hi = 1.0
    while log_mgf(law, -hi) > -u:
        hi *= 2.0
    return _bisect(lambda th: -u - log_mgf(law, -th), 0.0, hi)


def _jstar_single(lam: float, law: Sequence[tuple[float, float]]) -> float:
    """Largest theta with L(-theta) + lam theta <= 0 (0 < lam < mean)."""
    hi = 1.0
    while log_mgf(law, -hi) + lam * hi <= 0.0:
        hi *= 2.0
        if hi > 1e6:
            return math.inf
    return _bisect(lambda th: log_mgf(law, -th) + lam * th, 0.0, hi)


def _jstar_pair(lams: Sequence[float], laws: Sequence[Sequence[tuple[float, float]]]) -> float:
    lo_user = 0 if lams[0] <= lams[1] else 1
    hi_user = 1 - lo_user
    lam_lo, lam_hi = lams[lo_user], lams[hi_user]

    def slack(u: float) -> float:
        return lams[0] * _theta_floor(laws[0], u) + lams[1] * _theta_floor(laws[1], u) - u

    # slack is convex, zero at u = 0 and decreasing there for stable arrivals
    u_hi = 1.0
    while slack(u_hi) <= 0.0:
        u_hi *= 2.0
        if u_hi > 1e6:
            return math.inf
    u_max = _bisect(slack, 0.0, u_hi)

    def total(u: float) -> float:
        return u / lam_lo + _theta_floor(laws[hi_user], u) * (1.0 - lam_hi / lam_lo)

    return _golden_max(total, 0.0, u_max)[1]


def jstar_sets(
    lams: Sequence[float], tables: Sequence[Mapping[float, float]]
) -> dict[tuple[int, ...], float]:
    """Exponent of every 1- and 2-user set; J* is the smallest of them."""
    laws = [_law(t) for t in tables]
    out: dict[tuple[int, ...], float] = {}
    for i in range(len(laws)):
        out[(i,)] = _jstar_single(float(lams[i]), laws[i])
    for i, j in itertools.combinations(range(len(laws)), 2):
        out[(i, j)] = _jstar_pair([float(lams[i]), float(lams[j])], [laws[i], laws[j]])
    return out


def jstar(lams: Sequence[float], tables: Sequence[Mapping[float, float]]) -> float:
    return min(jstar_sets(lams, tables).values())


def cost_per_drift(
    lams: Sequence[float], tables: Sequence[Mapping[float, float]],
    users: Sequence[int], phi: Sequence[float],
) -> float:
    """f_S(phi): drift-equalizing frequencies, then sum_i c_i L*_i(phi_i) / w."""
    lam = [float(lams[i]) for i in users]
    inv = [1.0 / float(p) for p in phi]
    w = (sum(l * v for l, v in zip(lam, inv)) - 1.0) / sum(inv)
    c = [(l - w) * v for l, v in zip(lam, inv)]
    cost = sum(ci * cramer(tables[i], float(p)) for ci, i, p in zip(c, users, phi))
    return cost / w


# ---------------------------------------------------------------------------
# subset-structured bound


def substates(tables: Sequence[Mapping[float, float]], members: Sequence[int]):
    """Sub-states of a subset under independent users, in lexicographic order."""
    laws = [_law(tables[i]) for i in members]
    out = []
    for combo in itertools.product(*laws):
        out.append((tuple(r for r, _ in combo), math.exp(sum(lp for _, lp in combo))))
    return sorted(out)


def relative_entropy(phi: Sequence[float], probs: Sequence[float]) -> float:
    return sum(v * math.log(v / p) for v, p in zip(phi, probs) if v > 0.0)


def _min_service(members: Sequence[int], states, phi: Sequence[float], pos: int) -> float:
    """Smallest long-run rate member ``pos`` gets over the subset's winner maps.

    With another member in the subset every sub-state can go to that
    member, so the minimum is 0; alone, the member gets every sub-state.
    """
    if len(members) > 1:
        return 0.0
    return sum(v * s[pos] for v, (s, _) in zip(phi, states))


def subset_bound(
    lams: Sequence[float],
    tables: Sequence[Mapping[float, float]],
    subsets: Sequence[Sequence[int]],
    laws: Sequence[Sequence[float]],
) -> float:
    """sup over c of sum_a c_a D(phi_a||p_a) / max_a max_{i in a} (lambda_i - c_a m_ai).

    For one or two subsets the sup of this linear-over-piecewise-linear
    ratio is attained at c's end points or where two affine pieces of the
    denominator cross, so those points are enumerated exactly.
    """
    costs = []
    pieces = []  # per subset: (lambda_i, m_ai) for its members
    for members, phi in zip(subsets, laws):
        states = substates(tables, members)
        costs.append(relative_entropy(phi, [p for _, p in states]))
        pieces.append([(float(lams[i]), _min_service(members, states, phi, pos))
                       for pos, i in enumerate(members)])
    if len(subsets) == 1:
        return costs[0] / max(l - m for l, m in pieces[0])
    if len(subsets) != 2:
        raise ValueError("exact sup implemented for one or two subsets")

    # c = (s, 1 - s); piece values are affine in s
    lines = [(l, -m) for l, m in pieces[0]] + [(l - m, m) for l, m in pieces[1]]
    points = {0.0, 1.0}
    for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
        if b1 != b2:
            s = (a2 - a1) / (b1 - b2)
            if 0.0 <= s <= 1.0:
                points.add(s)
    best = -math.inf
    for s in points:
        den = max(a + b * s for a, b in lines)
        if den > 0.0:
            best = max(best, (s * costs[0] + (1.0 - s) * costs[1]) / den)
    return best


def no_service_exponent(
    lams: Sequence[float], tables: Sequence[Mapping[float, float]], members: Sequence[int]
) -> float:
    """Largest possible decay rate, per level, of a subset's overflow probability.

    While every member's rate is 0 nobody is served, so after n such slots
    the busiest member's queue holds about n lambda_max more packets.  A
    run of level / lambda_max such slots has probability
    p_0**(level / lambda_max), with p_0 the chance that all members read
    rate 0, so no policy's overflow probability decays faster than
    -log(p_0) / lambda_max per level.
    """
    p0 = math.prod(tables[i].get(0, 0.0) for i in members)
    return -math.log(p0) / max(float(lams[i]) for i in members) if p0 > 0.0 else math.inf


# ---------------------------------------------------------------------------
# arrivals, sampling epochs, exhaustive hitting probability


def cumulative_arrivals(rate: str | Fraction, slots: int) -> int:
    """floor(k lambda) packets by slot k, exactly."""
    return math.floor(slots * Fraction(rate))


def sampled_epochs(horizon: int, burn_in_frac: float, stride: int | None) -> int:
    """Epochs s in 1..horizon with s >= burn-in and (s - burn-in) divisible by the stride.

    The stride defaults to ceil(horizon / 1000) and the burn-in is
    floor(burn_in_frac * horizon) slots.
    """
    stride = stride or -(-horizon // 1000)
    burn = int(burn_in_frac * horizon)
    if burn == 0:
        return horizon // stride
    return (horizon - burn) // stride + 1


def hitting_probability(
    table: Mapping[float, float], rate: str | Fraction, level: int, horizon: int
) -> float:
    """P(one queue reaches ``level`` within ``horizon`` slots from empty).

    Enumerates all |support|**horizon channel words; the queue takes the
    slot's arrivals and then loses up to the slot's rate.
    """
    law = [(r, math.exp(lp)) for r, lp in _law(table)]
    arrivals = [cumulative_arrivals(rate, k + 1) - cumulative_arrivals(rate, k)
                for k in range(horizon)]
    total = 0.0
    for word in itertools.product(law, repeat=horizon):
        q = 0
        for (r, _), a in zip(word, arrivals):
            q = max(q + a - int(r), 0)
            if q >= level:
                total += math.prod(pr for _, pr in word)
                break
    return total
