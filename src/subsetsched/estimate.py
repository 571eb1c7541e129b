"""Monte Carlo estimation of queue-overflow probabilities and exponents.

Two estimators: a direct stationary proxy (fraction of sampled post-burn-in
epochs with the longest queue at or above a level, pooled over replicas)
and an importance-sampled first-hitting estimator (probability of reaching
a level before regenerating at the all-empty state, simulated under
exponentially tilted channel laws and reweighted per sampled slot).  Both
report matching exponents as the level grows; deep levels are only
reachable by the importance route.

Replicas are independent streams keyed on (master seed, stream tag, chunk
index), so results are bit-identical for any worker count, and merging is
a sum of per-chunk results in chunk order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .policies import PolicySpec, make_policy
from .ratefn import stability_check, tilt_to_mean
from .simulate import Simulator, SystemModel, rng_from_seed

_STREAM_RUN = 1
_STREAM_POLICY = 2
_STREAM_IS = 3
_STREAM_IS_POLICY = 4
_IS_CHUNK = 1024
_Z95 = 1.959963984540054
# A level is trusted for the exponent fit, and preferred over another
# method's estimate at that level, from this many direct events or this
# importance-sampling effective sample size on.
MIN_EVENTS = 50.0
MIN_ESS = 50.0


@dataclass(frozen=True)
class OverflowEstimate:
    """One (level, method) overflow-probability estimate with a 95% CI."""

    level: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    replicas: int
    method: str  # "direct" | "importance"
    events: float  # positive epochs (direct) or hitting cycles (importance)
    samples: int  # sampled epochs (direct) or cycles (importance)
    ess: float | None = None
    flags: tuple[str, ...] = ()
    slots: int = 0  # simulated slots over all replicas
    truncated: int = 0  # importance attempts cut off at max_slots, neither hit nor ended

    def to_row(self) -> dict:
        return {
            "level": self.level,
            "p_hat": self.p_hat,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "replicas": self.replicas,
            "method": self.method,
            "events": self.events,
            "samples": self.samples,
            "ess": "" if self.ess is None else self.ess,
            "slots": self.slots,
            "truncated": self.truncated,
            "flags": ";".join(self.flags),
        }


def _wilson(events: int, samples: int) -> tuple[float, float]:
    if samples == 0:
        return 0.0, 1.0
    p = events / samples
    z = _Z95
    denom = 1.0 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples * samples))
    return max(0.0, center - half), min(1.0, center + half)


def _resolve_workers(workers: int | None, jobs: int) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, jobs))


# ---------------------------------------------------------------------------
# direct estimator


def _direct_worker(args: tuple) -> tuple[int, dict[int, int], int, int]:
    model, policy_spec, horizon, levels, stride, burn_in_frac, seed, rep = args
    sim = Simulator(model)
    policy = make_policy(policy_spec, model, rng_from_seed(seed, _STREAM_POLICY, rep))
    res = sim.run(
        policy,
        horizon,
        rng_from_seed(seed, _STREAM_RUN, rep),
        levels=levels,
        sample_stride=stride,
        burn_in_frac=burn_in_frac,
    )
    return rep, res.exceed_counts, res.samples, res.peak


def direct_overflow_curve(
    model: SystemModel,
    policy: PolicySpec | str,
    levels: Sequence[int],
    replicas: int,
    horizon: int,
    seed: int,
    sample_stride: int | None = None,
    burn_in_frac: float = 0.2,
    workers: int | None = 1,
) -> tuple[list[OverflowEstimate], dict]:
    """Direct estimates for several levels from one batch of replica runs.

    Pools sampled-epoch exceedance counts across replicas; Wilson 95%
    intervals on the pooled counts.  Zero-event levels come back flagged
    rather than failing.  Warns (via a flag) when the instance is not
    strictly stable.
    """
    spec = PolicySpec(policy) if isinstance(policy, str) else policy
    lvl = sorted(int(v) for v in levels)
    stab = stability_check(model.arrivals.floats(), model.dist, model.subsets)
    base_flags: tuple[str, ...] = ()
    if stab.status != "stable_interior":
        base_flags = (f"instance_{stab.status}",)
    jobs = [
        (model, spec, int(horizon), tuple(lvl), sample_stride, burn_in_frac, int(seed), r)
        for r in range(int(replicas))
    ]
    nworkers = _resolve_workers(workers, len(jobs))
    if nworkers == 1:
        results = [_direct_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_direct_worker, jobs, chunksize=1))
    results.sort(key=lambda t: t[0])
    exceed = {v: 0 for v in lvl}
    samples = 0
    peak = 0
    for _, counts, nsamp, pk in results:
        for v in lvl:
            exceed[v] += counts[v]
        samples += nsamp
        peak = max(peak, pk)
    out = []
    for v in lvl:
        k = exceed[v]
        p_hat = k / samples if samples else 0.0
        lo, hi = _wilson(k, samples)
        flags = base_flags
        if k == 0:
            flags = flags + ("level_too_deep_for_direct_mc",)
        out.append(
            OverflowEstimate(
                level=v,
                p_hat=p_hat,
                ci_lo=lo,
                ci_hi=hi,
                replicas=int(replicas),
                method="direct",
                events=float(k),
                samples=samples,
                ess=None,
                flags=flags,
                slots=int(replicas) * int(horizon),
            )
        )
    meta = {
        "total_slots": int(replicas) * int(horizon),
        "peak": peak,
        "samples": samples,
        "stability": stab.status,
    }
    return out, meta


# ---------------------------------------------------------------------------
# importance-sampled first-hitting estimator


def tilted_proposals(model: SystemModel, phi: Sequence[float]) -> list[list[float] | None]:
    """Per-subset proposal laws: each singleton's marginal tilted to phi_i.

    Only defined for all-singleton subset systems (the tilt applies to the
    one channel sampled per slot).  phi_i equal to the natural mean gives
    the natural law back (zero tilt).
    """
    if not model.subsets.all_singletons:
        raise ValueError("importance sampling supports singleton observable subsets only")
    proposals: list[list[float] | None] = []
    for alpha in model.subsets.subsets:
        user = alpha[0]
        marginal = model.dist.user_marginal(user)
        tilted = tilt_to_mean(marginal, float(phi[user]))
        tmap = {round(v): p for v, p in zip(tilted.values, tilted.probs)}
        sub = model.dist.substate_marginal(alpha)
        proposals.append([tmap.get(r[0], 0.0) for r in sub.substates])
    return proposals


def _importance_worker(args: tuple) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """One chunk of attempts, stepped in lockstep by a single ``run_hitting`` call.

    Returns the chunk index, the attempts' log-likelihood ratios (-inf for a
    miss), the hit mask, and the chunk's slots and truncations.  Weights stay
    in log space: deep levels give hit weights far below the smallest
    positive double.
    """
    model, policy_spec, level, proposals, horizon, seed, chunk_idx, chunk_size = args
    sim = Simulator(model)
    rng = rng_from_seed(seed, _STREAM_IS, chunk_idx)
    policy = make_policy(policy_spec, model, rng_from_seed(seed, _STREAM_IS_POLICY, chunk_idx))
    hits, log_weights, slots, truncated = sim.run_hitting(
        policy, level, rng, tables=sim.tilted_tables(proposals), horizon=horizon,
        attempts=chunk_size,
    )
    return chunk_idx, np.where(hits, log_weights, -np.inf), hits, slots, truncated


def estimate_overflow_importance(
    model: SystemModel,
    policy: PolicySpec | str,
    level: int,
    phi: Sequence[float],
    replicas: int,
    seed: int,
    horizon: int | None = None,
    workers: int | None = 1,
) -> OverflowEstimate:
    """Importance-sampled overflow attempt probability at one level.

    Each replica is one attempt from the all-empty state, simulated with
    every sampled channel drawn from its tilted law; the likelihood ratio
    of the sub-states actually drawn reweights hits, making the estimator
    unbiased for the natural-law hitting probability (hit ``level`` before
    regenerating, or within ``horizon`` slots when given).  Normal 95% CI
    from the per-attempt variance; flagged when the effective sample size
    falls under ``MIN_ESS``, and when attempts without a ``horizon`` were
    cut off at the simulator's ``max_slots`` (counted in ``truncated``:
    such an attempt is not a miss, its outcome is unknown).
    """
    spec = PolicySpec(policy) if isinstance(policy, str) else policy
    proposals = tilted_proposals(model, phi)
    replicas = int(replicas)
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_chunks = (replicas + _IS_CHUNK - 1) // _IS_CHUNK
    jobs = []
    remaining = replicas
    for chunk_idx in range(n_chunks):
        size = min(_IS_CHUNK, remaining)
        remaining -= size
        jobs.append((model, spec, int(level), proposals, horizon, int(seed), chunk_idx, size))
    nworkers = _resolve_workers(workers, len(jobs))
    if nworkers == 1:
        results = [_importance_worker(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_importance_worker, jobs, chunksize=1))
    results.sort(key=lambda t: t[0])
    log_w = np.concatenate([r[1] for r in results])
    hits = int(np.count_nonzero(np.concatenate([r[2] for r in results])))
    total_slots = sum(r[3] for r in results)
    truncated = sum(r[4] for r in results)
    m = len(log_w)
    p_hat = se = ess = 0.0
    if hits:
        # mean and spread in log space, then scaled back once
        log_sum = float(logsumexp(log_w))
        p_hat = math.exp(log_sum - math.log(m))
        ess = math.exp(2.0 * log_sum - float(logsumexp(2.0 * log_w)))
        if m > 1:
            scaled = np.exp(log_w - log_sum)  # weights over their sum
            se = p_hat * math.sqrt(m / (m - 1) * float(np.sum((scaled - 1.0 / m) ** 2)))
    flags: list[str] = []
    if ess < MIN_ESS:
        flags.append("low_effective_sample_size")
    if truncated:
        flags.append("truncated_attempts")
    return OverflowEstimate(
        level=int(level),
        p_hat=p_hat,
        ci_lo=max(0.0, p_hat - _Z95 * se),
        ci_hi=min(1.0, p_hat + _Z95 * se),
        replicas=replicas,
        method="importance",
        events=float(hits),
        samples=m,
        ess=ess,
        flags=tuple(flags),
        slots=total_slots,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# exponent regression


@dataclass(frozen=True)
class ExponentFit:
    """Weighted least-squares slope of log p(level) against the level."""

    exponent: float
    stderr: float
    levels: tuple[int, ...]
    log_probs: tuple[float, ...]
    excluded: tuple[tuple[int, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "stderr": self.stderr,
            "levels": list(self.levels),
            "log_probs": list(self.log_probs),
            "excluded": [list(e) for e in self.excluded],
        }


def fit_exponent(estimates: Sequence[OverflowEstimate]) -> ExponentFit:
    """Fit log p(n) ~ -I n; the exponent is the negated slope.

    Uses only trustworthy levels: direct estimates need ``MIN_EVENTS``
    positive epochs, importance estimates an effective sample size of
    ``MIN_ESS``.  Weights follow the CI-propagated variance of log p (the
    log of a direct level's Wilson interval; the delta method se / p for an
    importance level, whose normal interval may be clipped at 0); the
    slope standard error is propagated from those variances (not from
    residuals), and degenerates to an unweighted fit with zero error when
    all CIs are exact.
    """
    usable: list[tuple[int, float, float]] = []
    excluded: list[tuple[int, str]] = []
    for est in estimates:
        if est.p_hat <= 0.0:
            excluded.append((est.level, "zero_estimate"))
            continue
        if est.method == "direct" and est.events < MIN_EVENTS:
            excluded.append((est.level, f"events<{MIN_EVENTS:g}"))
            continue
        if est.method == "importance" and (est.ess or 0.0) < MIN_ESS:
            excluded.append((est.level, f"ess<{MIN_ESS:g}"))
            continue
        if est.method == "importance":
            # delta method on the normal CI: sd(log p) = se / p, with se read
            # off the half-width on the side that the clip to [0, 1] spared
            half = max(est.ci_hi - est.p_hat, est.p_hat - est.ci_lo)
            sigma = half / _Z95 / est.p_hat
        elif est.ci_lo > 0.0:
            sigma = (math.log(est.ci_hi) - math.log(est.ci_lo)) / (2 * _Z95)
        else:
            sigma = 0.0
        usable.append((est.level, math.log(est.p_hat), max(sigma, 0.0)))
    if len(usable) < 3:
        raise ValueError(
            f"need >= 3 usable levels to fit an exponent, have {len(usable)} "
            f"(excluded: {excluded})"
        )
    x = np.array([u[0] for u in usable], dtype=float)
    y = np.array([u[1] for u in usable])
    sig = np.array([u[2] for u in usable])
    if np.all(sig <= 0):
        w = np.ones_like(x)
        exact = True
    else:
        w = 1.0 / np.maximum(sig, 1e-12) ** 2
        exact = False
    xbar = float(np.sum(w * x) / np.sum(w))
    ybar = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    stderr = 0.0 if exact else math.sqrt(1.0 / sxx)
    return ExponentFit(
        exponent=-slope,
        stderr=stderr,
        levels=tuple(int(u[0]) for u in usable),
        log_probs=tuple(float(u[1]) for u in usable),
        excluded=tuple(excluded),
    )
