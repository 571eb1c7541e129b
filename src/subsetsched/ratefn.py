"""Large-deviations primitives for finite-support service-rate laws.

Scalar channel marginals get a log-moment-generating function
``L(eta) = log E[exp(eta R)]`` and its Legendre-Fenchel dual ``L*(x) =
sup_eta (eta x - L(eta))``, the per-slot cost of the empirical mean rate
deviating to ``x``.  Sub-state empirical distributions get the relative
entropy D(phi || p).  Exponentially tilted laws realize a prescribed
atypical mean at exactly this cost and drive the importance sampler.

Infinity is represented by IEEE ``math.inf``, which already obeys the
propagation rules required here (inf + a = inf, min(inf, a) = a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, linprog

from .channels import JointChannelDistribution, SubsetSystem, SubStateDistribution

# Endpoint snapping and simplex-membership tolerance for rate-function queries.
EDGE_TOL = 1e-12
SIMPLEX_TOL = 1e-9
# Most winner maps one subset's vertex enumeration may visit.
VERTEX_CAP = 10**6


class ScalarRateFunction:
    """Log-MGF and Cramér dual of one channel's marginal rate law.

    The marginal is a finite map rate -> probability.  ``rate(x)`` is
    convex, nonnegative, zero at the mean, ``-log P[R = r_min]`` /
    ``-log P[R = r_max]`` at the support endpoints, and ``inf`` outside
    the support hull.
    """

    def __init__(self, marginal: Mapping[int, float]):
        if not marginal:
            raise ValueError("empty marginal")
        items = sorted((float(x), float(p)) for x, p in marginal.items())
        items = [(x, p) for x, p in items if p > 0.0]
        if not items:
            raise ValueError("marginal has no positive-probability atom")
        total = sum(p for _, p in items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"marginal probabilities sum to {total!r}")
        self.values = np.array([x for x, _ in items])
        self.probs = np.array([p for _, p in items])
        self.mean = float(self.values @ self.probs)
        self.r_min = float(self.values[0])
        self.r_max = float(self.values[-1])
        self._logp = np.log(self.probs)

    @property
    def degenerate(self) -> bool:
        return len(self.values) == 1

    def log_mgf(self, eta: float) -> float:
        """L(eta) = log sum_x p(x) exp(eta x), evaluated shift-stably."""
        z = eta * self.values + self._logp
        m = float(np.max(z))
        return m + math.log(float(np.sum(np.exp(z - m))))

    def log_mgf_deriv(self, eta: float) -> float:
        """L'(eta), the mean of the eta-tilted law; strictly increasing."""
        z = eta * self.values + self._logp
        z -= np.max(z)
        w = np.exp(z)
        return float((self.values @ w) / np.sum(w))

    def tilt_parameter(self, x: float) -> float:
        """Solve L'(eta) = x for x strictly inside the support hull.

        scipy's Brent root finder on a bracket grown geometrically from
        [-1, 1]; L' is strictly increasing for non-degenerate marginals.
        """
        if self.degenerate:
            raise ValueError("tilt undefined for a point-mass marginal")
        if not self.r_min < x < self.r_max:
            raise ValueError(f"target mean {x} not strictly inside "
                             f"({self.r_min}, {self.r_max})")
        lo, hi = -1.0, 1.0
        while self.log_mgf_deriv(lo) > x:
            lo *= 2.0
        while self.log_mgf_deriv(hi) < x:
            hi *= 2.0
        return brentq(lambda eta: self.log_mgf_deriv(eta) - x, lo, hi,
                      xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def rate(self, x: float) -> float:
        """Cramér rate L*(x) = sup_eta (eta x - L(eta)).

        Total function: ``inf`` outside [r_min, r_max]; endpoint atoms get
        the -log-probability value; interior points are solved via the
        stationarity condition L'(eta) = x.
        """
        if self.degenerate:
            return 0.0 if abs(x - self.r_min) <= EDGE_TOL else math.inf
        if x < self.r_min - EDGE_TOL or x > self.r_max + EDGE_TOL:
            return math.inf
        if abs(x - self.r_min) <= EDGE_TOL:
            return -float(self._logp[0])
        if abs(x - self.r_max) <= EDGE_TOL:
            return -float(self._logp[-1])
        eta = self.tilt_parameter(x)
        return max(0.0, eta * x - self.log_mgf(eta))


@dataclass(frozen=True)
class TiltedDistribution:
    """Exponentially tilted marginal with prescribed mean.

    Tilted probabilities are proportional to ``p(x) exp(tilt * x)``; the
    tilt parameter is chosen so the tilted mean equals ``target_mean``,
    and ``rate_at_target = tilt * target_mean - L(tilt)`` is the Cramér
    cost of that mean.
    """

    values: tuple[float, ...]
    base_probs: tuple[float, ...]
    probs: tuple[float, ...]
    tilt: float
    target_mean: float
    rate_at_target: float

    def mean(self) -> float:
        return float(sum(x * p for x, p in zip(self.values, self.probs)))


def tilt_to_mean(marginal: Mapping[int, float] | ScalarRateFunction, target_mean: float) -> TiltedDistribution:
    """Tilt a marginal so its mean becomes ``target_mean``.

    Requires r_min < target_mean < r_max except at the mean itself, where
    the tilt is exactly zero and the base law is returned unchanged.
    """
    rf = marginal if isinstance(marginal, ScalarRateFunction) else ScalarRateFunction(marginal)
    if abs(target_mean - rf.mean) <= EDGE_TOL:
        return TiltedDistribution(
            values=tuple(rf.values),
            base_probs=tuple(rf.probs),
            probs=tuple(rf.probs),
            tilt=0.0,
            target_mean=rf.mean,
            rate_at_target=0.0,
        )
    eta = rf.tilt_parameter(target_mean)
    z = eta * rf.values + np.log(rf.probs)
    z -= np.max(z)
    w = np.exp(z)
    w /= np.sum(w)
    return TiltedDistribution(
        values=tuple(rf.values),
        base_probs=tuple(rf.probs),
        probs=tuple(float(p) for p in w),
        tilt=eta,
        target_mean=float(target_mean),
        rate_at_target=max(0.0, eta * target_mean - rf.log_mgf(eta)),
    )


def sanov_rate(base: SubStateDistribution, phi: Sequence[float]) -> float:
    """Relative entropy D(phi || p) of an empirical sub-state distribution.

    ``phi`` must live on the probability simplex over ``base.substates``
    (tolerance 1e-9); mass on a null sub-state costs ``inf``;
    0 * log 0 = 0.
    """
    if len(phi) != len(base.probs):
        raise ValueError(
            f"dimension mismatch: phi has {len(phi)} entries, "
            f"base has {len(base.probs)} sub-states"
        )
    phi_arr = [float(v) for v in phi]
    if any(v < -SIMPLEX_TOL for v in phi_arr):
        raise ValueError("phi has a negative entry")
    if abs(sum(phi_arr) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"phi sums to {sum(phi_arr)!r}, not 1")
    out = 0.0
    for v, p in zip(phi_arr, base.probs):
        if v <= 0.0:
            continue
        if p <= 0.0:
            return math.inf
        out += v * math.log(v / p)
    return max(0.0, out)


class VertexCapError(ValueError):
    """A subset's winner-map vertex enumeration would exceed its cap."""


@dataclass(frozen=True)
class SubsetRateRegion:
    """Service-rate polytope of one subset under a fixed sub-state law.

    Each vertex corresponds to a deterministic winner map sub-state ->
    user: user i receives ``sum_r phi_r * rate_i(r)`` over the sub-states
    mapped to it.  The region is the convex hull of the vertices; it holds
    every long-term average service-rate vector sustainable inside the
    subset when its sub-states follow ``phi``.
    """

    subset: tuple[int, ...]
    phi: tuple[float, ...]
    vertices: tuple[tuple[float, ...], ...]

    def embedded_vertices(self, num_users: int) -> np.ndarray:
        """Vertices as rows in R^num_users, zeros off the subset."""
        out = np.zeros((len(self.vertices), num_users))
        for row, v in enumerate(self.vertices):
            for pos, user in enumerate(self.subset):
                out[row, user] = v[pos]
        return out


def region_vertices(
    substates: SubStateDistribution,
    phi: Sequence[float] | None = None,
) -> SubsetRateRegion:
    """Enumerate the winner-map vertices of a subset's rate region.

    There are ``|subset| ** n_substates`` maps (duplicate vertices are
    merged); raises ``VertexCapError`` if that exceeds ``VERTEX_CAP``.
    """
    k = len(substates.subset)
    n_states = len(substates.substates)
    if k**n_states > VERTEX_CAP:
        raise VertexCapError(f"subset {substates.subset}: vertex enumeration "
                             f"{k}**{n_states} exceeds cap {VERTEX_CAP}")
    if phi is None:
        weights = [float(p) for p in substates.probs]
    else:
        if len(phi) != n_states:
            raise ValueError("phi dimension mismatch")
        weights = [float(v) for v in phi]
    seen: dict[tuple[float, ...], tuple[float, ...]] = {}
    for winner in product(range(k), repeat=n_states):
        v = [0.0] * k
        for r_idx, pos in enumerate(winner):
            v[pos] += weights[r_idx] * substates.substates[r_idx][pos]
        vt = tuple(v)
        seen.setdefault(tuple(round(x, 12) for x in vt), vt)
    return SubsetRateRegion(
        subset=substates.subset,
        phi=tuple(weights),
        vertices=tuple(seen.values()),
    )


@dataclass(frozen=True)
class StabilityReport:
    status: str  # "stable_interior" | "boundary" | "unstable"
    margin: float  # 1 - load, on every system (see stability_check)


def _combined_vertices(dist: JointChannelDistribution, subsets: SubsetSystem) -> np.ndarray:
    """Vertex union of all per-subset regions under the natural laws, embedded in R^N.

    Time-sharing across disjoint subsets makes the achievable service-rate
    set the convex hull of these embedded vertices.
    """
    return np.vstack([
        region_vertices(dist.substate_marginal(alpha)).embedded_vertices(dist.num_users)
        for alpha in subsets.subsets
    ])


def _max_scaling_into_hull(lams: np.ndarray, vertices: np.ndarray) -> float | None:
    """max theta with (1 + theta) * lams in conv(vertices); None if infeasible."""
    n = lams.shape[0]
    m = vertices.shape[0]
    # variables: [theta, beta_1..beta_m]
    c = np.zeros(m + 1)
    c[0] = -1.0
    a_eq = np.zeros((n + 1, m + 1))
    a_eq[:n, 0] = -lams
    a_eq[:n, 1:] = vertices.T
    a_eq[n, 1:] = 1.0
    b_eq = np.concatenate([lams, [1.0]])
    res = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(-1.0, None)] + [(0.0, None)] * m,
        method="highs",
    )
    if not res.success:
        return None
    return float(res.x[0])


def stability_check(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
) -> StabilityReport:
    """Classify an arrival vector against the throughput region.

    The margin is 1 - load on every system, the load being the least time
    share that serves the arrivals: sum_i lambda_i / mu_i for singleton
    subsets; for general disjoint systems 1 / (1 + theta), with theta the
    largest such that (1+theta) lambda is an achievable time-shared service
    vector (LP over region vertices under the natural sub-state laws).  No
    arrivals read 1, arrivals no time share serves ``-inf``, and a margin
    within 1e-9 of 0 the boundary.  Non-disjoint collections are unsupported.
    """
    if not subsets.disjoint:
        raise ValueError("stability check requires disjoint observable subsets")
    lam = [float(v) for v in lams]
    if any(v < 0 for v in lam):
        raise ValueError("negative arrival rate")
    if all(v == 0.0 for v in lam):
        return StabilityReport(status="stable_interior", margin=1.0)
    if subsets.all_singletons:
        mu = dist.mean_rates()
        load = 0.0
        for i, li in enumerate(lam):
            if li == 0.0:
                continue
            if mu[i] <= 0.0:
                return StabilityReport(status="unstable", margin=-math.inf)
            load += li / mu[i]
    else:
        theta = _max_scaling_into_hull(np.asarray(lam), _combined_vertices(dist, subsets))
        load = math.inf if theta is None or theta <= -1.0 else 1.0 / (1.0 + theta)
    margin = 1.0 - load
    if margin > 1e-9:
        status = "stable_interior"
    elif margin < -1e-9:
        status = "unstable"
    else:
        status = "boundary"
    return StabilityReport(status=status, margin=margin)


def fluid_drift_bound(
    lams: Sequence[float],
    dist: JointChannelDistribution,
    subsets: SubsetSystem,
) -> float:
    """min over achievable service vectors v of max_i (lambda_i - v_i).

    Positive for arrival vectors outside the throughput region: it is the
    slowest possible growth rate of the longest queue, hence the fluid
    growth-rate prediction for a drift-balancing policy.
    """
    if not subsets.disjoint:
        raise ValueError("requires disjoint observable subsets")
    lam = np.asarray([float(v) for v in lams])
    vertices = _combined_vertices(dist, subsets)
    n = lam.shape[0]
    m = vertices.shape[0]
    # variables: [t, beta]; minimize t s.t. lambda_i - (beta V)_i <= t, beta on simplex
    c = np.zeros(m + 1)
    c[0] = 1.0
    a_ub = np.zeros((n, m + 1))
    a_ub[:, 0] = -1.0
    a_ub[:, 1:] = -vertices.T
    b_ub = -lam
    a_eq = np.zeros((1, m + 1))
    a_eq[0, 1:] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(None, None)] + [(0.0, None)] * m,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"fluid drift LP failed: {res.message}")
    return float(res.fun)
