"""Overflow-exponent bounds: an exact dual for J*, optimization for the rest.

Lower-bound side: for a user set S and twisted mean rates phi, the unique
sampling frequencies c equalizing all queue drifts to a common w > 0 give
a cost-per-unit-drift f_S(phi) = sum_i c_i L*_i(phi_i) / w; the singleton
exponent J* is the minimum of f_S over user sets and feasible twists.
With T = 1/w and x_i = c_i T, f_S is a sum of perspectives of the L*_i,
jointly convex (Boyd and Vandenberghe, Convex Optimization, 3.2.6), and
its Lagrange dual over twists phi_i <= mean_i is
sup { sum_i theta_i : theta >= 0, L_i(-theta_i) + sum_j lambda_j theta_j <= 0 }.
At a fixed level u = sum_j lambda_j theta_j each theta_i is at least
theta_i(u), the root of L_i(-theta) = -u, and the surplus is worth most on
the member with the smallest arrival rate, so
J_S = max_u u / lambda_min + sum_i theta_i(u) (1 - lambda_i / lambda_min)
over the interval of u >= 0 with sum_i lambda_i theta_i(u) <= u: a
concave one-dimensional problem (each theta_i(u) is convex), solved
exactly, whose maximizer gives back the primal twist phi_i = L_i'(-theta_i).

Upper-bound side: for any twisted means phi with the arrival vector
outside their scaled-simplex hull, every sampling-frequency vector c on
the simplex certifies sum_i c_i L*_i(phi_i) / max_i (lambda_i - c_i
phi_i) as an overflow-cost bound; the sup over c is computed exactly by
enumerating drift-equalizing support sets plus the breakpoints where the
active set changes.  The bound is evaluated once, at J*'s twist on its
winning set extended by the channel means off it.  Weak duality needs no
search: J* <= (best exponent) <= the bound at every twist outside the
hull, so the gap at that one twist bounds the true gap.
A subset-structured variant replaces Cramér costs by relative-entropy
costs of sub-state distributions and per-user rates by the winner-map
vertices of each subset's service region.

For matched singleton systems the two sides agree; the report carries
both values, the certifying twist and the dual gap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, linprog, minimize

from .channels import JointChannelDistribution, SubsetSystem
from .ratefn import (
    ScalarRateFunction,
    SubsetRateRegion,
    region_vertices,
    sanov_rate,
    stability_check,
)

_TINY = 1e-15
_FEAS_TOL = 1e-12
# finite infeasibility penalty: keeps Brent arithmetic clean where an
# infinite value would poison it
_PENALTY = 1e18


class UnstableArrivalsError(ValueError):
    """The arrival vector is not strictly inside the throughput region."""


# ---------------------------------------------------------------------------
# drift system


@dataclass(frozen=True)
class DriftSolution:
    """Sampling frequencies equalizing all queue growth rates on a user set.

    ``c`` sums to 1 over the set and ``lambda_i - c_i * phi_i == w`` for
    every member; feasibility requires w > 0 and c >= 0.
    """

    subset: tuple[int, ...]
    phi: tuple[float, ...]
    c: tuple[float, ...]
    w: float


def drift_solve(
    subset: Sequence[int], phi: Sequence[float], lams: Sequence[float]
) -> DriftSolution | None:
    """Closed-form drift-equalizing frequencies; None when infeasible.

    From sum_j (lambda_j - w) / phi_j = 1:
    w = (sum_j lambda_j/phi_j - 1) / (sum_j 1/phi_j), c_i = (lambda_i - w)/phi_i.
    c_i is evaluated as (1 + sum_j (lambda_i - lambda_j)/phi_j) / (phi_i sum_j
    1/phi_j), free of the cancellation in lambda_i - w at a tiny phi_i.
    Infeasible when any phi_j <= 0, w <= 0, or some c_j < 0.
    """
    members = tuple(int(i) for i in subset)
    if not members:
        raise ValueError("empty user set")
    ph = [float(phi[pos]) for pos in range(len(members))]
    lm = [float(lams[i]) for i in members]
    if any(p <= _TINY for p in ph):
        return None
    inv = [1.0 / p for p in ph]
    total_inv = sum(inv)
    w = (sum(l * v for l, v in zip(lm, inv)) - 1.0) / total_inv
    if w <= _TINY:
        return None
    c = [(1.0 + sum((li - lj) * vj for lj, vj in zip(lm, inv))) * vi / total_inv
         for li, vi in zip(lm, inv)]
    if any(ci < -_FEAS_TOL for ci in c):
        return None
    return DriftSolution(
        subset=members,
        phi=tuple(ph),
        c=tuple(max(0.0, ci) for ci in c),
        w=w,
    )


def cost_per_drift(
    subset: Sequence[int],
    phi: Sequence[float],
    lams: Sequence[float],
    rate_functions: Sequence[ScalarRateFunction],
) -> float:
    """f_S(phi): large-deviations cost per unit drift of the equalized system.

    Raises on an infeasible drift system; returns ``inf`` when any
    member's rate function is infinite at its twist.
    """
    sol = drift_solve(subset, phi, lams)
    if sol is None:
        raise ValueError(f"infeasible drift system for users {tuple(subset)} at phi {tuple(phi)}")
    total = 0.0
    for pos, user in enumerate(sol.subset):
        cost = rate_functions[user].rate(sol.phi[pos])
        if math.isinf(cost):
            return math.inf
        total += sol.c[pos] * cost
    return total / sol.w


def _as_rate_functions(
    marginals: Sequence[Mapping[int, float] | ScalarRateFunction],
) -> list[ScalarRateFunction]:
    return [
        m if isinstance(m, ScalarRateFunction) else ScalarRateFunction(m) for m in marginals
    ]


def _check_singleton_stable(lams: Sequence[float], rfs: Sequence[ScalarRateFunction]) -> float:
    load = 0.0
    for lam, rf in zip(lams, rfs):
        if lam <= 0:
            continue
        if rf.mean <= 0:
            raise UnstableArrivalsError(f"arrival rate {lam} on a zero-mean channel")
        load += lam / rf.mean
    if load >= 1.0 - 1e-12:
        raise UnstableArrivalsError(
            f"unstable arrival vector: load {load:.6f} >= 1 under per-user sampling"
        )
    return load


# ---------------------------------------------------------------------------
# J* for singleton observable subsets, exact by the one-dimensional dual


@dataclass(frozen=True)
class JstarResult:
    """J* = f_S(phi) of the winning set ``subset`` at its recovered twist.

    ``dual_gap`` is that primal value minus the set's dual value: >= 0 up
    to the rounding of f_S (|gap| ~ 1e-15 J*, more where a twist is floored
    at an r_min = 0 edge).  ``per_subset`` holds every set's primal value.
    """

    value: float
    subset: tuple[int, ...]
    phi: tuple[float, ...]
    per_subset: dict[tuple[int, ...], float]
    dual_gap: float


# twist floor at an r_min = 0 edge: above drift_solve's positivity floor and
# inside ScalarRateFunction.rate's endpoint snap, so it costs -log P(R = 0)
_PHI_FLOOR = 1e-13


def _dual_theta(rf: ScalarRateFunction, u: float) -> float:
    """theta(u): the smallest theta >= 0 with L(-theta) <= -u.

    ``inf`` once u reaches -log P(R = 0), the floor of L(-theta) when rate 0
    is in the support.  Newton from 0 on the convex, decreasing L(-theta) + u
    climbs to the root without passing it.
    """
    if u <= 0.0:
        return 0.0
    if rf.r_min == 0.0 and u >= -math.log(rf.probs[0]):
        return math.inf
    theta = 0.0
    for _ in range(500):
        excess = rf.log_mgf(-theta) + u
        if excess <= 0.0:
            break
        step = excess / rf.log_mgf_deriv(-theta)
        theta += step
        if step <= 4e-16 * theta:
            break
    return theta


def _jstar_on_set(
    lam: Sequence[float], rfs: Sequence[ScalarRateFunction]
) -> tuple[float, tuple[float, ...]]:
    """Dual value J_S and the primal twist it recovers, for one user set.

    ``(inf, ())`` when no twist makes every member's queue grow: a member
    without arrivals, or worst-case rates that still serve the whole set.
    """
    if min(lam) <= 0.0:
        return math.inf, ()
    if all(rf.r_min > 0.0 for rf in rfs) and sum(l / rf.r_min for l, rf in zip(lam, rfs)) <= 1.0:
        return math.inf, ()
    lam_min = min(lam)
    low = lam.index(lam_min)

    def thetas(u: float) -> list[float]:
        return [_dual_theta(rf, u) for rf in rfs]

    def slack(u: float) -> float:
        total = sum(l * t for l, t in zip(lam, thetas(u)))
        return total - u if math.isfinite(total) else _PENALTY

    def d_objective(u: float) -> float:
        # d/du of the concave objective; theta_i'(u) = 1 / phi_i(u)
        out = 1.0 / lam_min
        for l, rf, t in zip(lam, rfs, thetas(u)):
            if l > lam_min:
                phi = rf.log_mgf_deriv(-t) if math.isfinite(t) else 0.0
                out -= (l / lam_min - 1.0) / phi if phi > 0.0 else _PENALTY
        return out

    # slack is convex, 0 at u = 0 and falling there (the set is stable), and
    # positive past u_max: the -log P(R = 0) caps, or a doubled guess
    hi = min((-math.log(rf.probs[0]) for rf in rfs if rf.r_min == 0.0), default=1.0)
    while slack(hi) <= 0.0:
        hi *= 2.0
    lo = hi
    while slack(lo) >= 0.0:
        lo /= 2.0
    u_max = brentq(slack, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    step = 1e-15 * u_max
    while slack(u_max) > 0.0:  # land on the feasible side of the root
        u_max, step = max(lo, u_max - step), 2.0 * step
    if d_objective(u_max) >= 0.0:
        u = u_max
    else:
        u = brentq(d_objective, 0.0, u_max, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    theta = thetas(u)
    theta[low] += max(0.0, u - sum(l * t for l, t in zip(lam, theta))) / lam_min
    phi = tuple(max(_PHI_FLOOR, rf.log_mgf_deriv(-t)) for rf, t in zip(rfs, theta))
    return sum(theta), phi


def jstar_singleton(
    lams: Sequence[float],
    marginals: Sequence[Mapping[int, float] | ScalarRateFunction],
    grid_res: float = 0.01,
    multistarts: int = 64,
    seed: int = 0,
    max_users: int = 12,
) -> JstarResult:
    """Exponent lower bound min_S inf_phi f_S(phi) for per-user sampling.

    Enumerates every nonempty user set and solves each exactly by the
    one-dimensional dual (module docstring): scipy's Brent root finder for
    u_max and for the stationary level, Newton for each theta_i(u).  The
    reported value is the primal ``cost_per_drift`` at the recovered twist.
    ``grid_res``, ``multistarts`` and ``seed`` are accepted and ignored: the
    dual leaves nothing to grid or restart, and callers pass the same
    settings to ``verify_matching``.  Requires a strictly stable arrival
    vector.
    """
    rfs = _as_rate_functions(marginals)
    lam = [float(v) for v in lams]
    n = len(rfs)
    if len(lam) != n:
        raise ValueError("arrival vector and marginals length mismatch")
    if n > max_users:
        raise ValueError(f"{n} users exceeds the subset-enumeration cap {max_users}")
    _check_singleton_stable(lam, rfs)
    best: tuple[float, tuple[int, ...], tuple[float, ...], float] | None = None
    per_subset: dict[tuple[int, ...], float] = {}
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            dual, phi = _jstar_on_set([lam[i] for i in members], [rfs[i] for i in members])
            if math.isinf(dual):
                val, phi = math.inf, tuple(rfs[i].mean for i in members)
            else:
                val = cost_per_drift(members, phi, lam, rfs)
            per_subset[members] = val
            if best is None or val < best[0] - 1e-15:
                best = (val, members, phi, val - dual if math.isfinite(val) else 0.0)
    assert best is not None
    return JstarResult(
        value=best[0], subset=best[1], phi=best[2], per_subset=per_subset, dual_gap=best[3]
    )


# ---------------------------------------------------------------------------
# universal upper bound, per-user twists


def _hull_contains(lams: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Membership of the arrival vector in the scaled-simplex hull.

    The hull spanned by the origin and the per-user points phi_i e_i is
    {x >= 0 : sum_i x_i / phi_i <= 1}; coordinates with phi_i = 0 must be 0.
    ``phis`` is one twist (n,) or a batch (m, n) of them.
    """
    active = lams > _TINY
    starved = (active & (phis <= _TINY)).any(axis=-1)
    load = np.where(active, lams / np.where(phis > _TINY, phis, np.inf), 0.0).sum(axis=-1)
    return ~starved & (load <= 1.0 + 1e-12)


@functools.lru_cache(maxsize=None)
def _user_sets(n: int) -> np.ndarray:
    """Membership masks of the nonempty subsets of n users, by size (read-only)."""
    sets = [m for k in range(1, n + 1) for m in itertools.combinations(range(n), k)]
    out = np.array([[i in m for i in range(n)] for m in sets], dtype=bool)
    out.flags.writeable = False
    return out


def _inner_sup_users(
    lam: np.ndarray,
    phi: np.ndarray,
    lstar: np.ndarray,
) -> np.ndarray:
    """sup over the c-simplex of sum c_i lstar_i / max_i (lambda_i - c_i phi_i).

    Row-wise over an (m, n) batch of twists ``phi`` and their finite costs
    ``lstar``, in one set of (m, candidates, n) array passes.  Assumes the
    hull check already excluded the arrival vector, so every c has a
    strictly positive denominator.  The sup equals the best of a finite
    candidate family: for each denominator target w (the drift-equalizing
    root plus each arrival rate acting as an active-set breakpoint),
    allocate the minimum frequencies keeping all drifts <= w and give the
    leftover mass to the costliest user; for n <= 12, also the
    drift-equalizing frequencies of every user set.
    Every candidate is evaluated honestly, so the result is a certified
    lower estimate that the piecewise-linear-fractional structure makes
    exact.  Reductions call the ufuncs directly, which matters at m = 1.
    """
    m, n = phi.shape
    if n == 0 or lam.max() <= _TINY:
        return np.zeros(m)
    rows = np.arange(m)
    pos = phi > _TINY
    inv = 1.0 / np.where(pos, phi, np.inf)
    w_floor = np.maximum.reduce((lam > _TINY) * ~pos * lam, axis=1)  # starved users

    # exact root of sum_i max(0, (lam_i - w)/phi_i) = 1: on the piece where the
    # active set is fixed the equation is the drift-equalizing formula; walk
    # the users by decreasing arrival rate, skipping each row's zero twists
    order = np.argsort(-lam, kind="stable")
    order = order[lam[order] > _TINY]
    lam_o = lam[order]
    inv_o = inv[:, order]
    on = pos[:, order]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.cumsum(lam_o * inv_o, axis=1) - 1.0) / np.cumsum(inv_o, axis=1)
    # arrival rate of each row's next walked user (-inf past the last)
    later = np.maximum.accumulate(np.where(on, lam_o, -np.inf)[:, ::-1], axis=1)[:, ::-1]
    next_lam = np.concatenate([later[:, 1:], np.full((m, 1), -np.inf)], axis=1)
    hit = on & (w > _TINY) & (w <= lam_o + 1e-12) & (w >= next_lam - 1e-12)
    first = np.argmax(hit, axis=1)
    w_lo = np.maximum(w_floor, np.where(hit[rows, first], w[rows, first], 0.0))
    w_lo[w_lo <= _TINY] = 1e-14

    # targets: w_lo and every positive arrival rate at or above it, none
    # below a starved user's arrival rate
    targets = np.concatenate([w_lo[:, None], np.repeat(lam[None, :], m, axis=0)], axis=1)
    ok = np.concatenate([np.ones((m, 1), dtype=bool), (lam > 0) & (lam >= w_lo[:, None] - 1e-12)],
                        axis=1) & (w_floor[:, None] <= targets + 1e-12)
    c = np.maximum(0.0, (lam - targets[:, :, None]) * inv[:, None, :])
    s = np.add.reduce(c, axis=2)
    ok &= s <= 1.0 + 1e-9
    c[rows, :, np.argmax(lstar, axis=1)] += np.maximum(0.0, 1.0 - s)
    candidates, valid = [c], [ok]

    if n <= 12:
        member = _user_sets(n)
        sub_inv = inv[:, None, :] * member
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (np.add.reduce(lam * sub_inv, axis=2) - 1.0) / np.add.reduce(sub_inv, axis=2)
            sub_c = (lam - w[:, :, None]) * sub_inv
        ok = (np.logical_and.reduce(pos[:, None, :] | ~member, axis=2) & (w > _TINY)
              & np.logical_and.reduce(sub_c >= -_FEAS_TOL, axis=2))
        candidates.append(np.maximum(0.0, sub_c))
        valid.append(ok)

    c = np.concatenate(candidates, axis=1)
    ok = np.concatenate(valid, axis=1)
    den = np.maximum.reduce(lam - c * phi[:, None, :], axis=2)
    ok &= den > _TINY
    val = np.add.reduce(c * lstar[:, None, :], axis=2) / np.where(ok, den, 1.0)
    return np.maximum(0.0, np.maximum.reduce(np.where(ok, val, -np.inf), axis=1))


def _simplex_grid(n: int, resolution: float) -> np.ndarray:
    steps = int(round(1.0 / resolution))
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        c0 = np.linspace(0.0, 1.0, steps + 1)
        return np.stack([c0, 1.0 - c0], axis=1)
    if n == 3:
        a, b = np.meshgrid(*[np.linspace(0.0, 1.0, steps + 1)] * 2, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        return np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
    raise ValueError("simplex grid only implemented for n <= 3")


def upper_bound_eval(
    lams: Sequence[float],
    phis: Sequence[float],
    marginals: Sequence[Mapping[int, float] | ScalarRateFunction],
    simplex_resolution: float = 1e-3,
) -> float:
    """Universal overflow-cost bound for one choice of twisted means.

    ``inf`` when the arrival vector lies in the twisted hull or any twist
    leaves its rate function's effective domain (the bound is vacuous
    there).  The inner sup over sampling frequencies combines the exact
    candidate family with a simplex-grid refinement for <= 3 users.
    """
    rfs = _as_rate_functions(marginals)
    lam = np.asarray([float(v) for v in lams])
    phi = np.asarray([float(v) for v in phis])
    lstar = np.array([rf.rate(p) for rf, p in zip(rfs, phi)])
    if not np.all(np.isfinite(lstar)):
        return math.inf
    if _hull_contains(lam, phi):
        return math.inf
    best = float(_inner_sup_users(lam, phi[None, :], lstar[None, :])[0])
    if len(lam) <= 3:
        grid = _simplex_grid(len(lam), simplex_resolution)
        den = lam[None, :] - grid * phi[None, :]
        den = den.max(axis=1)
        num = grid @ lstar
        ok = den > _TINY
        if np.any(ok):
            best = max(best, float(np.max(num[ok] / den[ok])))
    return best


def upper_bound_min(
    lams: Sequence[float],
    marginals: Sequence[Mapping[int, float] | ScalarRateFunction],
    jstar: JstarResult | None = None,
) -> tuple[float, tuple[float, ...], JstarResult]:
    """Universal bound at the matching twist, certified by weak duality.

    The twist is J*'s on its winning set, extended by the channel means off
    it; a twist the dual floored at ``_PHI_FLOOR`` is evaluated at its
    r_min = 0 edge itself, where the user is starved rather than served.
    J* <= (best exponent) <= ``upper_bound_eval`` at every twist outside the
    hull, so the bound at this one twist bounds the gap and no search over
    twists could take it below J*.  ``jstar`` is this instance's
    ``jstar_singleton`` result when the caller already has it.  Returns the
    bound, the twist and that J* result.  Requires a strictly stable
    arrival vector.
    """
    rfs = _as_rate_functions(marginals)
    jr = jstar if jstar is not None else jstar_singleton(lams, rfs)
    phi = [rf.mean for rf in rfs]
    for user, p in zip(jr.subset, jr.phi):
        phi[user] = rfs[user].r_min if p <= _PHI_FLOOR else p
    return upper_bound_eval(lams, phi, rfs), tuple(phi), jr


def overflow_time_window(
    lams: Sequence[float], phis: Sequence[float]
) -> tuple[float, float]:
    """Earliest and latest fluid overflow times under twisted mean rates.

    For fluid inputs at the arrival rates drained by any rate vector in the
    twisted hull: the longest queue reaches level 1 no sooner than
    ``1 / max_i lambda_i`` and, when the arrivals lie outside the hull, no
    later than ``1 / min_{mu in hull} max_i (lambda_i - mu_i)`` (the inner
    LP is over the scaled simplex).  Diagnostic companion to the universal
    upper bound.
    """
    lam = np.asarray([float(v) for v in lams])
    phi = np.asarray([float(v) for v in phis])
    lam_max = float(np.max(lam))
    if lam_max <= 0:
        return math.inf, math.inf
    t_min = 1.0 / lam_max
    if _hull_contains(lam, phi):
        return t_min, math.inf
    n = len(lam)
    # variables [t, mu]: min t s.t. lambda_i - mu_i <= t, sum mu_i/phi_i <= 1
    c = np.zeros(n + 1)
    c[0] = 1.0
    a_ub = np.zeros((n + 1, n + 1))
    a_ub[:n, 0] = -1.0
    a_ub[:n, 1:] = -np.eye(n)
    b_ub = np.concatenate([-lam, [1.0]])
    with np.errstate(divide="ignore"):
        a_ub[n, 1:] = np.where(phi > _TINY, 1.0 / np.maximum(phi, _TINY), 0.0)
    bounds_list = [(None, None)] + [
        (0.0, 0.0 if phi[i] <= _TINY else None) for i in range(n)
    ]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds_list, method="highs")
    if not res.success or res.fun <= _TINY:
        return t_min, math.inf
    return t_min, 1.0 / float(res.fun)


# ---------------------------------------------------------------------------
# subset-structured upper bound (general disjoint observable subsets)


def _region_lambda_out_of_hull(
    lam: np.ndarray, regions: Sequence[SubsetRateRegion], num_users: int
) -> bool:
    """True when no time-shared combination of region points dominates lambda.

    Membership LP: beta >= 0 on the combined vertex list, sum beta = 1,
    (beta V)_i >= lambda_i for all i.  Dominated arrivals make the bound
    vacuous (they are inside the induced throughput region).
    """
    vertices = np.vstack([r.embedded_vertices(num_users) for r in regions])
    m = vertices.shape[0]
    res = linprog(
        np.zeros(m),
        A_ub=np.vstack([-vertices.T, np.ones((1, m))]),
        b_ub=np.concatenate([-lam, [1.0]]),
        bounds=[(0.0, None)] * m,
        method="highs",
    )
    return not res.success


def subset_upper_bound(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
    phis: Sequence[Sequence[float]],
    simplex_resolution: float = 1e-3,
) -> tuple[float, dict]:
    """Universal bound for fixed per-subset sub-state distributions.

    Numerator: per-subset relative-entropy costs weighted by subset
    sampling frequencies.  Denominator, taken verbatim: the worst queue
    growth over all winner-map vertices of every subset region, which for
    multi-user subsets admits vertices giving a user zero service; the
    ``lambda_max_dominated`` diagnostic flags when that verbatim reading
    pins the denominator at the raw arrival maximum.  Returns ``inf``
    when the arrival vector is dominated by the time-shared regions.
    """
    if not subsets.disjoint:
        raise ValueError("subset upper bound requires disjoint observable subsets")
    lam = np.asarray([float(v) for v in lams])
    n_sub = len(subsets.subsets)
    if len(phis) != n_sub:
        raise ValueError("need one sub-state distribution per subset")
    sub_dists = [dist.substate_marginal(a) for a in subsets.subsets]
    costs = np.array([sanov_rate(sd, ph) for sd, ph in zip(sub_dists, phis)])
    if not np.all(np.isfinite(costs)):
        return math.inf, {"reason": "sub-state distribution off the support"}
    regions = [region_vertices(sd, ph) for sd, ph in zip(sub_dists, phis)]
    if not _region_lambda_out_of_hull(lam, regions, dist.num_users):
        return math.inf, {"reason": "arrivals inside the induced throughput region"}

    # per-subset data: (lambda_i, min vertex coordinate) pairs
    data: list[list[tuple[float, float]]] = []
    for region, alpha in zip(regions, subsets.subsets):
        data.append(
            [(float(lam[user]), region.min_coordinate(pos)) for pos, user in enumerate(alpha)]
        )

    def den_of(c: np.ndarray) -> float:
        worst = -math.inf
        for a in range(n_sub):
            ca = c[a]
            for li, mi in data[a]:
                worst = max(worst, li - ca * mi)
        return worst

    w_floor = 0.0
    for rows in data:
        for li, mi in rows:
            if mi <= _TINY and li > _TINY:
                w_floor = max(w_floor, li)

    def req(a: int, w: float) -> float:
        out = 0.0
        for li, mi in data[a]:
            if mi > _TINY:
                out = max(out, (li - w) / mi)
        return max(0.0, out)

    def req_sum(w: float) -> float:
        return sum(req(a, w) for a in range(n_sub))

    lam_max = float(np.max(lam))
    w_lo = max(w_floor, 1e-14)
    if req_sum(w_lo) > 1.0:
        lo, hi = w_lo, max(lam_max, w_lo + 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if req_sum(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        w_lo = max(hi, w_floor)
    candidates = {w_lo}
    candidates.update(float(v) for v in lam if v >= w_lo - 1e-12 and v > 0)
    j_slack = int(np.argmax(costs))

    best = -math.inf
    best_c = None
    for w in sorted(candidates):
        if w_floor > w + 1e-12:
            continue
        c = np.array([req(a, w) for a in range(n_sub)])
        s = float(c.sum())
        if s > 1.0 + 1e-9:
            continue
        c[j_slack] += max(0.0, 1.0 - s)
        den = den_of(c)
        if den <= _TINY:
            continue
        val = float(np.dot(c, costs)) / den
        if val > best:
            best, best_c = val, c
    if n_sub <= 3:
        for c in _simplex_grid(n_sub, simplex_resolution):
            den = den_of(c)
            if den <= _TINY:
                continue
            val = float(np.dot(c, costs)) / den
            if val > best:
                best, best_c = val, c
    if best_c is None:
        # only non-positive drifts found; formula value is vacuous
        return 0.0, {"reason": "no positive-drift sampling frequencies"}
    multi = any(len(a) >= 2 for a in subsets.subsets)
    dominated = multi and abs(den_of(best_c) - lam_max) <= 1e-12
    return best, {
        "c": tuple(float(v) for v in best_c),
        "lambda_max_dominated": bool(dominated),
    }


def minimize_subset_upper_bound(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
    multistarts: int = 32,
    seed: int = 0,
) -> tuple[float, tuple[tuple[float, ...], ...], dict]:
    """Best subset-structured bound over per-subset sub-state twists.

    Sub-state distributions are parametrized by softmax logits restricted
    to each subset's support; Nelder-Mead multistarts seed from
    service-suppressing tilts of the natural laws (the natural laws
    themselves are inside the vacuous-hull region for stable arrivals).
    """
    if not subsets.disjoint:
        raise ValueError("requires disjoint observable subsets")
    lam = [float(v) for v in lams]
    sub_dists = [dist.substate_marginal(a) for a in subsets.subsets]
    dims = [len(sd.substates) for sd in sub_dists]
    log_nat = [np.log(np.maximum(np.asarray(sd.probs), 1e-300)) for sd in sub_dists]
    total_rate = [np.array([sum(r) for r in sd.substates], dtype=float) for sd in sub_dists]

    def unpack(z: np.ndarray) -> list[np.ndarray]:
        out = []
        at = 0
        for d in dims:
            seg = z[at : at + d]
            seg = seg - np.max(seg)
            p = np.exp(seg)
            out.append(p / p.sum())
            at += d
        return out

    def objective(z: np.ndarray) -> float:
        val, _ = subset_upper_bound(lam, dist, subsets, unpack(z), simplex_resolution=1e-2)
        return val

    starts = []
    for t in (0.5, 1.0, 2.0, 4.0):
        starts.append(np.concatenate([ln - t * tr for ln, tr in zip(log_nat, total_rate)]))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5B])))
    for _ in range(multistarts):
        starts.append(
            np.concatenate([ln for ln in log_nat]) + rng.normal(0.0, 1.5, size=sum(dims))
        )
    best_val = math.inf
    best_z = starts[0]
    for z0 in starts:
        if not math.isfinite(objective(z0)):
            continue
        res = minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-11, "maxiter": 300 * sum(dims)},
        )
        if math.isfinite(res.fun) and res.fun < best_val:
            best_val = float(res.fun)
            best_z = res.x
    phis = unpack(best_z)
    final, diag = subset_upper_bound(lam, dist, subsets, phis, simplex_resolution=1e-3)
    if math.isfinite(final):
        best_val = final
    return best_val, tuple(tuple(float(v) for v in p) for p in phis), diag


# ---------------------------------------------------------------------------
# matching report


@dataclass
class ExponentReport:
    """Computed exponent bounds plus the data needed to reproduce them."""

    jstar: float
    ub_min: float
    gap: float
    phi_hat: tuple
    method: str
    resolution: dict
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def verify_matching(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
    grid_res: float = 0.01,
    multistarts: int = 64,
    seed: int = 0,
) -> ExponentReport:
    """Compute both exponent bounds and their gap for one instance.

    Singleton systems solve J* exactly by its dual and evaluate the
    universal upper bound once, at J*'s own twist extended by the means
    (``upper_bound_min``); by weak duality the gap between the two
    certifies J* as the best exponent.  ``grid_res`` is accepted and
    ignored, since no twist is searched for.  General disjoint systems
    report the minimized subset-structured bound as the predicted exponent
    (the matching policy attains it), searched with ``multistarts`` and
    ``seed``; simulation is the cross-check there.  Positivity of the
    exponent is asserted for every stable instance.
    """
    stab = stability_check(lams, dist, subsets)
    if stab.status != "stable_interior":
        raise UnstableArrivalsError(
            f"arrival vector is {stab.status} (margin {stab.margin:.4g}); "
            "exponent bounds need a strictly stable instance"
        )
    lam = [float(v) for v in lams]
    if subsets.all_singletons:
        users = sorted(a[0] for a in subsets.subsets)
        lam_cov = [lam[i] for i in users]
        margs = [dist.user_marginal(i) for i in users]
        jr = jstar_singleton(lam_cov, margs)
        ub, phi_hat, _ = upper_bound_min(lam_cov, margs, jstar=jr)
        t_window = overflow_time_window(lam_cov, phi_hat)
        if not jr.value > 0:
            raise RuntimeError("exponent lower bound is not positive on a stable instance")
        if math.isinf(jr.value) and math.isinf(ub):
            gap = 0.0
        else:
            gap = abs(jr.value - ub) / max(jr.value, 1e-12)
        return ExponentReport(
            jstar=jr.value,
            ub_min=ub,
            gap=gap,
            phi_hat=phi_hat,
            method="singleton_matching",
            resolution={
                "inner": "exact candidate family + 1e-3 simplex grid",
                "value_tol": 1e-6,
            },
            diagnostics={
                "jstar_subset": jr.subset,
                "jstar_phi": jr.phi,
                "jstar_dual_gap": jr.dual_gap,
                "per_subset": {",".join(map(str, k)): v for k, v in jr.per_subset.items()},
                "covered_users": users,
                "stability_margin": stab.margin,
                "overflow_time_window": t_window,
            },
        )
    value, phis, diag = minimize_subset_upper_bound(
        lam, dist, subsets, multistarts=max(8, multistarts // 2), seed=seed
    )
    if not value > 0:
        raise RuntimeError("subset-structured bound is not positive on a stable instance")
    return ExponentReport(
        jstar=value,
        ub_min=value,
        gap=0.0,
        phi_hat=phis,
        method="subset_upper_bound",
        resolution={"simplex_grid": 1e-3, "value_tol": 1e-6},
        diagnostics={
            "note": "predicted exponent equals the minimized subset-structured bound; "
            "validate against simulation",
            "stability_margin": stab.margin,
            **diag,
        },
    )
