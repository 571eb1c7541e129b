"""Built-in oracle battery for the CLI selftest subcommand.

Each check recomputes its expected value from an independent oracle
(dense-grid Legendre sup, hand-solved linear systems, exhaustive
enumeration) and compares the library against it.  Prints one PASS/FAIL
line per check to stdout; exit code 1 on any failure.
"""

from __future__ import annotations

import itertools

import numpy as np

from .bounds import drift_solve, verify_matching
from .channels import JointChannelDistribution, SubsetSystem
from .estimate import estimate_overflow_importance
from .policies import MaxExp, MaxQueue
from .ratefn import ScalarRateFunction, tilt_to_mean
from .simulate import ArrivalSpec, Simulator, SystemModel, check_invariants, rng_from_seed


def _check_cramer_grid() -> tuple[bool, str]:
    rng = np.random.Generator(np.random.PCG64(7))
    etas = np.arange(-50.0, 50.0, 1e-3)
    worst = 0.0
    for _ in range(8):
        k = int(rng.integers(2, 5))
        values = sorted(rng.choice(np.arange(0, 6), size=k, replace=False).tolist())
        probs = rng.dirichlet(np.ones(k))
        rf = ScalarRateFunction({int(v): float(p) for v, p in zip(values, probs)})
        grid_mgf = np.array([rf.log_mgf(e) for e in etas])
        for x in rng.uniform(rf.r_min, rf.r_max, size=5):
            oracle = float(np.max(etas * x - grid_mgf))
            worst = max(worst, abs(rf.rate(float(x)) - oracle))
    return worst < 1e-5, f"max |dual - grid sup| = {worst:.2e}"


def _check_tilt_duality() -> tuple[bool, str]:
    rng = np.random.Generator(np.random.PCG64(11))
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 5))
        values = sorted(rng.choice(np.arange(0, 6), size=k, replace=False).tolist())
        probs = rng.dirichlet(np.ones(k))
        rf = ScalarRateFunction({int(v): float(p) for v, p in zip(values, probs)})
        phi = float(rng.uniform(rf.r_min + 1e-3, rf.r_max - 1e-3))
        t = tilt_to_mean(rf, phi)
        worst = max(worst, abs(rf.rate(phi) - (t.tilt * phi - rf.log_mgf(t.tilt))))
        worst = max(worst, abs(t.mean() - phi))
    return worst < 1e-8, f"max duality/mean residual = {worst:.2e}"


def _check_drift() -> tuple[bool, str]:
    sol = drift_solve((0, 1), (0.5, 0.5), (0.4, 0.4))
    ok = sol is not None and abs(sol.w - 0.15) < 1e-12 and max(abs(c - 0.5) for c in sol.c) < 1e-12
    infeasible = drift_solve((0, 1), (0.5, 0.5), (0.2, 0.2)) is None
    return ok and infeasible, "hand-solved drift system reproduced"


def _check_reduction() -> tuple[bool, str]:
    subsets = SubsetSystem.from_lists([[0], [1], [2]], 3)
    me, mq = MaxExp(subsets), MaxQueue(subsets)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(2000):
        q = rng.integers(0, 50, size=3).tolist()
        if me.choose_subset(q, 0) != mq.choose_subset(q, 0):
            return False, f"choices differ at q={q}"
    return True, "2000 random queue vectors, identical choices"


def _check_invariants() -> tuple[bool, str]:
    model = SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
        subsets=SubsetSystem.from_lists([[0], [1]], 2),
        arrivals=ArrivalSpec.from_values(["2/5", "2/5"]),
    )
    sim = Simulator(model)
    res = sim.run(MaxQueue(model.subsets), 5000, rng_from_seed(5, 1, 0), check_every=1)
    check_invariants(sim, res.state)
    return True, "5000 audited steps"


def _check_importance() -> tuple[bool, str]:
    model = SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}]),
        subsets=SubsetSystem.from_lists([[0]], 1),
        arrivals=ArrivalSpec.from_values(["4/5"]),
    )
    horizon, level = 8, 3
    exact = 0.0
    for seq in itertools.product([0, 2], repeat=horizon):
        q = 0
        hit = False
        for k, r in enumerate(seq):
            a = model.arrivals.increments(k)[0]
            q = max(q + a - r, 0)
            if q >= level:
                hit = True
                break
        if hit:
            exact += 0.5**horizon
    est = estimate_overflow_importance(
        model, "max_queue", level, phi=[0.4], replicas=20000, seed=9, horizon=horizon
    )
    se = max((est.ci_hi - est.ci_lo) / (2 * 1.96), 1e-12)
    z = abs(est.p_hat - exact) / se
    return z < 4.0, f"exact {exact:.6f}, IS {est.p_hat:.6f}, |z| = {z:.2f}"


def _check_matching() -> tuple[bool, str]:
    dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}])
    subsets = SubsetSystem.from_lists([[0], [1]], 2)
    report = verify_matching([0.4, 0.4], dist, subsets, multistarts=16, seed=1)
    return report.gap < 1e-2 and report.jstar > 0, (
        f"jstar {report.jstar:.6f}, ub {report.ub_min:.6f}, gap {report.gap:.2e}"
    )


CHECKS = [
    ("cramer_vs_grid_oracle", _check_cramer_grid),
    ("tilt_duality", _check_tilt_duality),
    ("drift_system", _check_drift),
    ("maxexp_reduces_to_maxqueue", _check_reduction),
    ("simulator_invariants", _check_invariants),
    ("importance_sampling_vs_enumeration", _check_importance),
    ("matching_bounds_reference", _check_matching),
]


def run_selftest() -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, keep going
            ok, detail = False, f"raised {exc!r}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
