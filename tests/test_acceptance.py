"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints one `ACCEPTANCE n: PASS - detail` line (visible with
pytest -s or in captured output on failure).  Expected values come from
independent in-test oracles: dense-grid Legendre suprema, exhaustive
channel-word enumeration, hand-solved drift systems, and LP fluid drifts.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from subsetsched import (
    ArrivalSpec,
    JointChannelDistribution,
    MaxExp,
    MaxQueue,
    ScalarRateFunction,
    Simulator,
    SubsetSystem,
    SystemModel,
    check_invariants,
    direct_overflow_curve,
    estimate_overflow_importance,
    fit_exponent,
    fluid_drift_bound,
    tilt_to_mean,
    verify_matching,
)
from subsetsched.simulate import Policy, _UniformStream, rng_from_seed

from conftest import random_marginal, random_stable_two_user_instance

WORKERS = min(2, os.cpu_count() or 1)

# J* values observed across criteria, re-asserted positive in criterion 10
_JSTAR_REGISTRY: dict[str, float] = {}


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def reference_model() -> SystemModel:
    return SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
        subsets=SubsetSystem.from_lists([[0], [1]], 2),
        arrivals=ArrivalSpec.from_values(["2/5", "2/5"]),
    )


def grid_legendre_table(marginal: dict) -> tuple[np.ndarray, np.ndarray]:
    """Dense-grid log-MGF on eta in [-50, 50], step 1e-4 (criterion oracle).

    Overflow-free via one-sided shifts: for eta >= 0 anchor at the top
    rate, else at the bottom, so every exponent argument is <= 0.
    """
    values = np.array(sorted(marginal), dtype=float)
    probs = np.array([marginal[v] for v in sorted(marginal)])
    etas = np.arange(-50.0, 50.0, 1e-4)
    log_mgf = np.empty_like(etas)
    pos = etas >= 0
    for mask, anchor in ((pos, values[-1]), (~pos, values[0])):
        e = etas[mask]
        acc = np.zeros(len(e))
        for v, p in zip(values, probs):
            acc += p * np.exp(e * (v - anchor))
        log_mgf[mask] = e * anchor + np.log(acc)
    return etas, log_mgf


def test_criterion_1_cramer_grid_equivalence():
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    for _ in range(50):
        marginal = random_marginal(rng)
        rf = ScalarRateFunction(marginal)
        etas, log_mgf = grid_legendre_table(marginal)
        xs = rng.uniform(rf.r_min, rf.r_max, size=20)
        for x in xs:
            oracle = float(np.max(etas * x - log_mgf))
            worst = max(worst, abs(rf.rate(float(x)) - oracle))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6, f"worst deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s (budget 10s)"
    _report(1, f"50 marginals x 20 points, worst |dual - grid sup| = {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_tilt_duality():
    rng = np.random.Generator(np.random.PCG64(202))
    worst = 0.0
    for _ in range(50):
        marginal = random_marginal(rng)
        rf = ScalarRateFunction(marginal)
        phi = float(rng.uniform(rf.r_min + 1e-6, rf.r_max - 1e-6))
        t = tilt_to_mean(rf, phi)
        resid = abs(rf.rate(phi) - (t.tilt * phi - rf.log_mgf(t.tilt)))
        worst = max(worst, resid)
    assert worst < 1e-8, f"worst duality residual {worst:.3e}"
    _report(2, f"50 (marginal, mean) pairs, worst residual = {worst:.2e}")


def test_criterion_3_matching_bounds():
    t0 = time.monotonic()
    singles = SubsetSystem.from_lists([[0], [1]], 2)
    rep = verify_matching(
        [0.4, 0.4],
        JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
        singles,
        grid_res=0.01,
    )
    assert rep.gap < 1e-2, f"reference gap {rep.gap:.3e}"
    _JSTAR_REGISTRY["reference"] = rep.jstar
    worst = rep.gap
    rng = np.random.Generator(np.random.PCG64(303))
    for trial in range(10):
        lam, t1, t2 = random_stable_two_user_instance(rng)
        dist = JointChannelDistribution.product_form([t1, t2])
        r = verify_matching(lam, dist, singles, grid_res=0.01, seed=trial)
        assert r.gap < 1e-2, f"instance {trial} (lam={lam}) gap {r.gap:.3e}"
        _JSTAR_REGISTRY[f"random_{trial}"] = r.jstar
        worst = max(worst, r.gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"
    _report(3, f"reference jstar = {rep.jstar:.6f}, 11 instances, worst gap = "
               f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_simulated_exponent_matches_jstar():
    t0 = time.monotonic()
    model = reference_model()
    rep = verify_matching(
        model.arrivals.floats(), model.dist, model.subsets, grid_res=0.01
    )
    _JSTAR_REGISTRY.setdefault("reference", rep.jstar)
    levels = [10, 15, 20, 25]
    estimates = []
    total_slots = 0
    for level in levels:
        est = estimate_overflow_importance(
            model, "max_queue", level, phi=rep.phi_hat, replicas=32_000,
            seed=404, workers=WORKERS,
        )
        total_slots += est.slots
        estimates.append(est)
    fit = fit_exponent(estimates)
    elapsed = time.monotonic() - t0
    rel = abs(fit.exponent - rep.jstar) / rep.jstar
    assert total_slots >= 10**7, f"only {total_slots} slots simulated"
    assert rel < 0.20, (
        f"fitted {fit.exponent:.4f} vs jstar {rep.jstar:.4f} ({100 * rel:.1f}% off; "
        f"tolerance 20% for finite-level prefactors)"
    )
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
    _report(4, f"levels {levels}, {total_slots} slots, fitted {fit.exponent:.4f} "
               f"vs jstar {rep.jstar:.4f} ({100 * rel:.2f}% off), {elapsed:.1f}s")


def test_criterion_5_maxqueue_beats_uniform_baseline():
    model = reference_model()
    levels = [4, 6, 8, 10]
    fits = {}
    for policy in ("max_queue", "uniform_random"):
        ests, _ = direct_overflow_curve(
            model, policy, levels, replicas=16, horizon=250_000, seed=505,
            sample_stride=1, workers=WORKERS,
        )
        fits[policy] = fit_exponent(ests)
    margin = fits["max_queue"].exponent - fits["uniform_random"].exponent
    se_sum = fits["max_queue"].stderr + fits["uniform_random"].stderr
    assert margin > se_sum, f"margin {margin:.4f} vs summed SE {se_sum:.4f}"
    _report(5, f"max_queue {fits['max_queue'].exponent:.4f}±{fits['max_queue'].stderr:.4f} "
               f"vs uniform_random {fits['uniform_random'].exponent:.4f}"
               f"±{fits['uniform_random'].stderr:.4f}")


def test_criterion_6_importance_sampling_unbiased():
    t0 = time.monotonic()
    model = SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}]),
        subsets=SubsetSystem.from_lists([[0]], 1),
        arrivals=ArrivalSpec.from_values(["4/5"]),
    )
    horizon, level = 10, 4
    exact = 0.0
    arr = [model.arrivals.increments(k)[0] for k in range(horizon)]
    for seq in itertools.product([0, 2], repeat=horizon):
        q = 0
        for k, r in enumerate(seq):
            q = max(q + arr[k] - r, 0)
            if q >= level:
                exact += 0.5**horizon
                break
    est = estimate_overflow_importance(
        model, "max_queue", level, phi=[0.4], replicas=100_000, seed=606,
        horizon=horizon, workers=WORKERS,
    )
    se = (est.ci_hi - est.ci_lo) / (2 * 1.959963984540054)
    z = abs(est.p_hat - exact) / se
    elapsed = time.monotonic() - t0
    assert z < 3.0, f"IS {est.p_hat:.6f} vs exact {exact:.6f}, z = {z:.2f}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"
    _report(6, f"exact {exact:.6f} (2^10 words), IS {est.p_hat:.6f}, z = {z:.2f}, "
               f"{elapsed:.1f}s")


class _SeededRandomPolicy(Policy):
    def __init__(self, subsets, rng):
        self.members = subsets.subsets
        self._stream = _UniformStream(rng)

    def choose_subset(self, q, k):
        m = len(self.members)
        return min(int(self._stream.next() * m), m - 1)

    def choose_user(self, subset_id, rates, q):
        members = self.members[subset_id]
        return members[min(int(self._stream.next() * len(members)), len(members) - 1)]


def test_criterion_7_bookkeeping_invariants_million_steps():
    configs = [
        ([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}], [[0], [1]], ["2/5", "2/5"]),
        ([{0: 0.3, 1: 0.4, 3: 0.3}, {0: 0.6, 2: 0.4}], [[0, 1]], ["1/3", "1/4"]),
        ([{1: 1.0}, {0: 0.2, 2: 0.8}, {0: 0.5, 1: 0.5}], [[0, 2], [1]], ["1/2", "2/5", "1/5"]),
        ([{0: 0.25, 1: 0.5, 2: 0.25}], [[0]], ["3/5"]),
        ([{0: 0.5, 4: 0.5}, {0: 0.9, 3: 0.1}], [[0, 1], [1]], ["1", "1/10"]),
    ]
    policies = ["max_exp", "random", "round_robin", "random"]
    steps_per_run = 50_000
    total = 0
    for ci, (tables, subsets, lams) in enumerate(configs):
        model = SystemModel(
            dist=JointChannelDistribution.product_form(tables),
            subsets=SubsetSystem.from_lists(subsets, len(tables)),
            arrivals=ArrivalSpec.from_values(lams),
        )
        sim = Simulator(model)
        for pi, pname in enumerate(policies):
            seed = 1000 * ci + pi
            if pname == "random":
                policy = _SeededRandomPolicy(model.subsets, rng_from_seed(seed, 2, 0))
            elif pname == "max_exp":
                policy = MaxExp(model.subsets)
            else:
                from subsetsched import RoundRobinSubset

                policy = RoundRobinSubset(model.subsets)
            res = sim.run(
                policy, steps_per_run, rng_from_seed(seed, 1, 0),
                q0=[2] * model.num_users, check_every=1,
            )
            check_invariants(sim, res.state)
            total += steps_per_run
    assert total >= 10**6, f"only {total} audited steps"
    _report(7, f"{total} steps across {len(configs)} models x {len(policies)} policies, "
               "all counting identities held after every step")


def test_criterion_8_maxexp_reduction():
    subsets = SubsetSystem.from_lists([[0], [1], [2], [3]], 4)
    me, mq = MaxExp(subsets), MaxQueue(subsets)
    rng = np.random.Generator(np.random.PCG64(808))
    for i in range(10_000):
        if i % 3 == 0:
            q = rng.integers(0, 10, size=4).tolist()  # dense ties
        else:
            q = rng.integers(0, 10**6, size=4).tolist()
        assert me.choose_subset(q, i) == mq.choose_subset(q, i), f"diverged at q={q}"
    _report(8, "10000 random queue vectors on singleton subsets, choices identical")


def test_criterion_9_stability_boundary():
    dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}])
    subsets = SubsetSystem.from_lists([[0], [1]], 2)
    # boundary for this symmetric instance: lambda = (1/2, 1/2)
    over = SystemModel(dist=dist, subsets=subsets,
                       arrivals=ArrivalSpec.from_values(["3/5", "3/5"]))
    predicted = fluid_drift_bound([0.6, 0.6], dist, subsets)
    sim = Simulator(over)
    res = sim.run(MaxQueue(subsets), 10_000, rng_from_seed(909, 1, 0), record_path=True)
    peaks = res.path.max(axis=1)
    slope = float(np.polyfit(np.arange(len(peaks)), peaks, 1)[0])
    assert slope > 0
    assert abs(slope - predicted) / predicted < 0.25, (
        f"slope {slope:.4f} vs fluid prediction {predicted:.4f}"
    )
    # 0.8 x boundary: bounded queues, no monotone trend in sampled block means
    under = SystemModel(dist=dist, subsets=subsets,
                        arrivals=ArrivalSpec.from_values(["2/5", "2/5"]))
    sim_u = Simulator(under)
    details = []
    for policy_cls in (MaxExp, MaxQueue):
        r = sim_u.run(policy_cls(subsets), 100_000, rng_from_seed(910, 1, 0),
                      record_path=True)
        peaks_u = r.path[20_000:100_000].max(axis=1)
        blocks = peaks_u.reshape(20, -1).mean(axis=1)
        tau, p = kendalltau(np.arange(len(blocks)), blocks)
        assert tau <= 0 or p > 0.05, (
            f"{policy_cls.__name__}: monotone growth trend (tau={tau:.2f}, p={p:.3f})"
        )
        details.append(f"{policy_cls.__name__} peak {r.peak}, tau {tau:+.2f} p {p:.2f}")
    _report(9, f"1.2x slope {slope:.4f} vs predicted {predicted:.4f}; "
               f"0.8x bounded ({'; '.join(details)})")


def test_criterion_10_jstar_positive_on_stable_instances():
    if "reference" not in _JSTAR_REGISTRY:
        rep = verify_matching(
            [0.4, 0.4],
            JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            SubsetSystem.from_lists([[0], [1]], 2),
        )
        _JSTAR_REGISTRY["reference"] = rep.jstar
    assert _JSTAR_REGISTRY, "no stable instances were computed"
    for name, value in _JSTAR_REGISTRY.items():
        assert value > 0, f"instance {name} has nonpositive exponent {value}"
    _report(10, f"jstar > 0 on all {len(_JSTAR_REGISTRY)} stable instances "
                f"(min {min(_JSTAR_REGISTRY.values()):.4f})")
