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
phi_i) as an overflow-cost bound.  The sup over c is a linear-fractional
program (Charnes and Cooper, Naval Res. Logist. Q. 9, 1962), solved
exactly by a breakpoint walk.  Fix a denominator level w: the least
frequencies keeping every drift <= w are need_i(w) = max(0, (lambda_i -
w) / phi_i), which fit on the simplex once w >= w_lo, the drift floor
(never below a starved user's lambda_i), and the leftover mass is worth
most on the costliest user.  The best numerator g(w) is piecewise linear
with breakpoints at the lambda_i, and on each piece g(w) / w = alpha / w +
beta is monotone, so the sup is attained at w_lo or at some lambda_i.
The bound is evaluated once, at J*'s twist on its winning set extended by
the channel means off it.  Weak duality needs no search: J* <= (best
exponent) <= the bound at every twist outside the hull, so the gap at
that one twist bounds the true gap.
A subset-structured variant replaces Cramér costs by relative-entropy
costs of sub-state distributions and per-user rates by the winner-map
vertices of each subset's service region; under its verbatim
denominator each subset acts as one user, so the same walk solves it.
Its vacuity test sums one exact gauge per subset and keeps an LP only
near the hull boundary (see ``_SCREEN_BAND``).

For matched singleton systems the two sides agree; the report carries
both values, the certifying twist and the dual gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, linprog, minimize

from .channels import JointChannelDistribution, SubsetSystem, SubStateDistribution
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
) -> JstarResult:
    """Exponent lower bound min_S inf_phi f_S(phi) for per-user sampling.

    Enumerates every nonempty user set and solves each exactly by the
    one-dimensional dual (module docstring): scipy's Brent root finder for
    u_max and for the stationary level, Newton for each theta_i(u).  The
    reported value is the primal ``cost_per_drift`` at the recovered twist.
    ``grid_res``, ``multistarts`` and ``seed`` are accepted and ignored: the
    dual leaves nothing to grid or restart, and callers pass the same
    settings to ``verify_matching``.  Requires a strictly stable arrival
    vector and at most 12 users (2^n - 1 user sets are enumerated).
    """
    rfs = _as_rate_functions(marginals)
    lam = [float(v) for v in lams]
    n = len(rfs)
    if len(lam) != n:
        raise ValueError("arrival vector and marginals length mismatch")
    if n > 12:
        raise ValueError(f"{n} users exceeds the subset-enumeration cap 12")
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


def _hull_contains(lam: np.ndarray, phi: np.ndarray) -> bool:
    """Membership of the arrival vector in the scaled-simplex hull of one twist.

    The hull spanned by the origin and the per-user points phi_i e_i is
    {x >= 0 : sum_i x_i / phi_i <= 1}; coordinates with phi_i = 0 must be 0.
    """
    active = lam > _TINY
    starved = (active & (phi <= _TINY)).any()
    load = np.where(active, lam / np.where(phi > _TINY, phi, np.inf), 0.0).sum()
    return not starved and load <= 1.0 + 1e-12


def _drift_floor(lam: np.ndarray, phi: np.ndarray) -> float:
    """Lowest common drift level w that the twist can hold every queue to.

    The least w >= 0 with sum_i max(0, (lambda_i - w) / phi_i) <= 1, raised
    to the arrival rate of any user the twist starves (phi_i = 0).  Every
    user set's drift-equalizing level lies at or below that root, since its
    budget terms are bounded by the max(0, .) ones, and the users above the
    root are a prefix by decreasing arrival rate whose level is the root:
    so the root is the largest level over those prefixes.
    """
    pos = phi > _TINY
    inv = 1.0 / np.where(pos, phi, np.inf)
    w_floor = np.maximum.reduce(np.where(pos, 0.0, lam))  # starved users
    order = np.argsort(-lam, kind="stable")
    inv_o = inv[order]
    with np.errstate(divide="ignore"):  # a prefix of starved users only: -inf
        w = (np.cumsum(lam[order] * inv_o) - 1.0) / np.cumsum(inv_o)
    return float(np.maximum(w_floor, np.maximum.reduce(w, initial=0.0)))


def _inner_sup_users(
    lam: np.ndarray,
    phi: np.ndarray,
    lstar: np.ndarray,
) -> tuple[float, np.ndarray]:
    """sup over the c-simplex of sum c_i lstar_i / max_i (lambda_i - c_i phi_i).

    For one twist ``phi`` and its finite costs ``lstar``, in one set of
    (n + 1, n) array passes.  Assumes the hull check already excluded the
    arrival vector, so every c has a strictly positive denominator.  Exact
    by the breakpoint argument of the module docstring: the candidates are
    the denominator levels w_lo (the drift floor) and every arrival rate
    above it, each allocating the least frequencies that keep all drifts
    <= w and the leftover mass to the costliest user.  Returns the sup
    (floored at 0) and the frequencies attaining it.  Reductions call the
    ufuncs directly, which matters at this size.
    """
    n = phi.shape[0]
    if n == 0 or lam.max() <= _TINY:
        return 0.0, np.zeros(n)
    w_lo = np.maximum(_drift_floor(lam, phi), 1e-14)
    # levels: w_lo and every arrival rate, one below w_lo lifted to it
    w = np.concatenate([[w_lo], np.maximum(lam, w_lo)])
    inv = 1.0 / np.where(phi > _TINY, phi, np.inf)
    c = np.maximum(0.0, (lam - w[:, None]) * inv)
    s = np.add.reduce(c, axis=1)
    c[:, np.argmax(lstar)] += np.maximum(0.0, 1.0 - s)
    den = np.maximum.reduce(lam - c * phi, axis=1)
    ok = (s <= 1.0 + 1e-9) & (den > _TINY)
    val = np.where(ok, np.add.reduce(c * lstar, axis=1) / np.where(ok, den, 1.0), -np.inf)
    best = np.argmax(val)
    return float(np.maximum(0.0, val[best])), c[best]


def upper_bound_eval(
    lams: Sequence[float],
    phis: Sequence[float],
    marginals: Sequence[Mapping[int, float] | ScalarRateFunction],
) -> float:
    """Universal overflow-cost bound for one choice of twisted means.

    ``inf`` when the arrival vector lies in the twisted hull or any twist
    leaves its rate function's effective domain (the bound is vacuous
    there).  The inner sup over sampling frequencies is exact
    (``_inner_sup_users``).
    """
    rfs = _as_rate_functions(marginals)
    lam = np.asarray([float(v) for v in lams])
    phi = np.asarray([float(v) for v in phis])
    lstar = np.array([rf.rate(p) for rf, p in zip(rfs, phi)])
    if not np.all(np.isfinite(lstar)):
        return math.inf
    if _hull_contains(lam, phi):
        return math.inf
    return _inner_sup_users(lam, phi, lstar)[0]


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
    later than ``1 / min_{mu in hull} max_i (lambda_i - mu_i)``.  That
    minimum is the drift floor w_lo of ``_drift_floor``: draining user i
    down to drift w costs (lambda_i - w) / phi_i of the hull's unit budget.
    Diagnostic companion to the universal upper bound.
    """
    lam = np.asarray([float(v) for v in lams])
    phi = np.asarray([float(v) for v in phis])
    lam_max = float(np.max(lam))
    if lam_max <= 0:
        return math.inf, math.inf
    t_min = 1.0 / lam_max
    if _hull_contains(lam, phi):
        return t_min, math.inf
    w_lo = _drift_floor(lam, phi)
    if w_lo <= _TINY:
        return t_min, math.inf
    return t_min, 1.0 / w_lo


# ---------------------------------------------------------------------------
# subset-structured upper bound (general disjoint observable subsets)


def _region_lambda_out_of_hull(
    lam: np.ndarray, regions: Sequence[SubsetRateRegion], num_users: int
) -> bool:
    """True when no time-shared combination of region points dominates lambda.

    Membership LP: beta >= 0 on the combined vertex list, sum beta <= 1,
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


# The vacuity screen.  For disjoint subsets the membership LP above is
# feasible exactly when G(lambda) = sum_a g_a(lambda_a) <= 1, where g_a is
# the gauge of subset a's region closed downward: the least time share t
# with lambda_a <= t v for some region point v.  By polarity g_a(x) is the
# max over weights beta >= 0 of beta.x / h_a(beta), with h_a(beta) =
# E_phi[max_i beta_i r_i] the region's support function.  A lone member
# reads x / (phi . r).  For a pair h_a is convex and piecewise linear in
# beta_0 (beta_1 = 1 - beta_0) with kinks at each sub-state's r_1 / (r_0 +
# r_1), and beta.x / h_a is monotone on each piece, so the max sits at
# beta_0 in {0, 1} or at a kink.
# HiGHS answers within its primal feasibility tolerance tau = 1e-7: it may
# accept beta V >= lambda - tau with sum beta <= 1 + tau.  G is monotone and
# subadditive, so such a lambda has G(lambda) <= G((lambda - tau)^+) +
# tau G(1) <= 1 + tau (1 + G(1)), with 1 the indicator of lambda > 0.  The
# screen therefore answers only when |G - 1| exceeds both that margin and
# 1e-6, ten times the widest gap from 1 at which the gauge and HiGHS were
# seen to disagree (9.99999945e-8, on the Nelder-Mead trajectories of the
# pair bound).  Inside that band, and for any subset of three or more
# members, the LP decides.
_SCREEN_BAND = 1e-6
_HIGHS_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class _SubsetLaw:
    """One subset's natural sub-state law and its support-function table.

    Row k of ``support`` holds max_i betas[k, i] r_i(s) over the sub-states
    s, so ``support @ phi`` is the region's support function at every
    candidate weight.  Both arrays are None for three or more members.
    """

    law: SubStateDistribution
    betas: np.ndarray | None
    support: np.ndarray | None


def _subset_laws(dist: JointChannelDistribution, subsets: SubsetSystem) -> list[_SubsetLaw]:
    """Sub-state laws and gauge tables of every subset, built once per search."""
    out = []
    for alpha in subsets.subsets:
        law = dist.substate_marginal(alpha)
        rates = np.asarray(law.substates, dtype=float)
        if len(alpha) == 1:
            betas = np.ones((1, 1))
        elif len(alpha) == 2:
            total = rates.sum(axis=1)
            b0 = np.concatenate([[0.0, 1.0], rates[total > 0, 1] / total[total > 0]])
            betas = np.stack([b0, 1.0 - b0], axis=1)
        else:
            out.append(_SubsetLaw(law, None, None))
            continue
        support = np.max(betas[:, None, :] * rates[None, :, :], axis=2)
        out.append(_SubsetLaw(law, betas, support))
    return out


def _hull_screen(
    lam: np.ndarray, laws: Sequence[_SubsetLaw], phis: Sequence[Sequence[float]]
) -> bool | None:
    """``_region_lambda_out_of_hull``'s answer by the gauge, or None near the boundary.

    None also for subsets of three or more members and for arrivals on a
    user no subset observes.
    """
    if any(sl.betas is None for sl in laws):
        return None
    covered = [i for sl in laws for i in sl.law.subset]
    if len(covered) < lam.shape[0] and np.delete(lam, covered).max() > 0.0:
        return None
    gauge = ones = 0.0
    for sl, ph in zip(laws, phis):
        lam_a = lam[list(sl.law.subset)]
        num = sl.betas @ np.stack([lam_a, lam_a > 0.0], axis=1)
        # a zero (or, from slightly negative law entries, negative) support
        # value reads as an infinite gauge, which leaves the answer to the LP
        h = np.maximum(sl.support @ np.asarray(ph, dtype=float), 0.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(num > 0.0, num / h, 0.0)
        g, g_ones = np.maximum.reduce(ratio, axis=0)
        gauge += g
        ones += g_ones
    if abs(gauge - 1.0) <= max(_SCREEN_BAND, _HIGHS_FEAS_TOL * (1.0 + ones)):
        return None
    return bool(gauge > 1.0)


def _lone_mean(law: SubStateDistribution, phi: Sequence[float]) -> float:
    """A lone member's service rate under ``phi``, summed in ``region_vertices``' order."""
    total = 0.0
    for p, r in zip(phi, law.substates):
        total += float(p) * r[0]
    return total


def _subset_bound(
    lam: np.ndarray,
    laws: Sequence[_SubsetLaw],
    phis: Sequence[Sequence[float]],
    num_users: int,
) -> tuple[float, dict]:
    """``subset_upper_bound`` on prebuilt subset laws."""
    if len(phis) != len(laws):
        raise ValueError("need one sub-state distribution per subset")
    costs = np.array([sanov_rate(sl.law, ph) for sl, ph in zip(laws, phis)])
    if not np.all(np.isfinite(costs)):
        return math.inf, {"reason": "sub-state distribution off the support"}
    out = _hull_screen(lam, laws, phis)
    if out is None:
        regions = [region_vertices(sl.law, ph) for sl, ph in zip(laws, phis)]
        out = _region_lambda_out_of_hull(lam, regions, num_users)
    if not out:
        return math.inf, {"reason": "arrivals inside the induced throughput region"}

    lam_v = np.array([lam[list(sl.law.subset)].max() for sl in laws])
    phi_v = np.array([_lone_mean(sl.law, ph) if len(sl.law.subset) == 1 else 0.0
                      for sl, ph in zip(laws, phis)])
    value, c = _inner_sup_users(lam_v, phi_v, costs)
    multi = any(len(sl.law.subset) >= 2 for sl in laws)
    den = float(np.max(lam_v - c * phi_v))
    return value, {
        "c": tuple(float(v) for v in c),
        "lambda_max_dominated": bool(multi and abs(den - float(np.max(lam))) <= 1e-12),
    }


def subset_upper_bound(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
    phis: Sequence[Sequence[float]],
) -> tuple[float, dict]:
    """Universal bound for fixed per-subset sub-state distributions.

    Numerator: per-subset relative-entropy costs weighted by subset
    sampling frequencies.  Denominator, taken verbatim: the worst queue
    growth over all winner-map vertices of every subset region.  A lone
    member is served at its mean rate under its subset's law (the region
    is that one point); every member of a larger subset gets no service
    from some winner map, so the subset reads as one starved user at its
    largest arrival rate.  The sup over subset frequencies is then the
    per-user one, solved exactly by ``_inner_sup_users`` on one virtual
    user per subset.  The ``lambda_max_dominated`` diagnostic flags when
    that verbatim reading pins the denominator at the raw arrival maximum.
    Returns ``inf`` when the arrival vector is dominated by the
    time-shared regions.  That test sums one exact gauge per subset (the
    least time share at which its region covers its arrivals; closed form
    for one or two members) and answers from the sum when it is more than
    1e-6 away from 1, and further than HiGHS's 1e-7 tolerance can reach.
    Inside that band, and whenever a subset has three or more members, it
    enumerates the region vertices and solves the membership LP.
    """
    if not subsets.disjoint:
        raise ValueError("subset upper bound requires disjoint observable subsets")
    lam = np.asarray([float(v) for v in lams])
    return _subset_bound(lam, _subset_laws(dist, subsets), phis, dist.num_users)


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
    Each evaluation is ``subset_upper_bound`` on sub-state laws built once
    for the search: its vacuity test answers from the per-subset gauges
    away from the hull boundary and runs the membership LP only within
    1e-6 of it (or on subsets of three or more members); outside that
    band both give the same answers, so the search takes the LP's path.
    The search can stop above the bound's infimum; ``diag`` counts the
    Nelder-Mead runs (``nelder_mead_starts``).
    """
    if not subsets.disjoint:
        raise ValueError("requires disjoint observable subsets")
    lam = np.asarray([float(v) for v in lams])
    laws = _subset_laws(dist, subsets)
    dims = [len(sl.law.substates) for sl in laws]
    log_nat = [np.log(np.maximum(np.asarray(sl.law.probs), 1e-300)) for sl in laws]
    total_rate = [np.array([sum(r) for r in sl.law.substates], dtype=float) for sl in laws]

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
        val, _ = _subset_bound(lam, laws, unpack(z), dist.num_users)
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
    runs = 0
    for z0 in starts:
        if not math.isfinite(objective(z0)):
            continue
        runs += 1
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
    final, diag = subset_upper_bound(lam, dist, subsets, phis)
    if math.isfinite(final):
        best_val = final
    diag["nelder_mead_starts"] = runs
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
    report the minimized subset-structured bound as the predicted exponent,
    searched with ``multistarts`` and ``seed``; the search carries no
    tolerance (its resolution is the number of starts run), and
    simulation is the cross-check there.  Positivity of the
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
                "inner": "exact breakpoint walk",
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
        resolution={"nelder_mead_starts": diag.pop("nelder_mead_starts")},
        diagnostics={
            "note": "predicted exponent equals the minimized subset-structured bound; "
            "validate against simulation",
            "stability_margin": stab.margin,
            **diag,
        },
    )
