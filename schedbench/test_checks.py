"""Every check of the benchmark fails on a perturbed output; the oracles are right.

    python3 -m pytest schedbench/test_checks.py -q

Each workload check is fed an output that should pass and the same output
perturbed, and must reject the perturbed one.  The known faults (F1, F2)
are fed their real failing figures, a corrected one, and wildly wrong ones
that must fail untagged.  The oracles are
compared with closed forms and with brute force.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

REF = {0: 0.5, 2: 0.5}


def outcomes(claims) -> dict[str, bool]:
    return {name: ok for name, (ok, _), _ in claims}


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


# ---------------------------------------------------------------------------
# oracles


def test_cramer_matches_the_two_point_closed_form():
    # R = 2B with B ~ Bernoulli(1/2): L*(x) = y log 2y + (1 - y) log 2(1 - y), y = x/2
    for x in (0.1, 0.5, 1.0, 1.5, 1.9):
        y = x / 2
        exact = y * math.log(2 * y) + (1 - y) * math.log(2 * (1 - y))
        assert oracles.cramer(REF, x) == pytest.approx(exact, abs=1e-12)
    assert oracles.cramer(REF, 0.0) == pytest.approx(math.log(2))
    assert oracles.cramer(REF, 2.5) == math.inf


def test_jstar_reference_and_its_sets():
    sets = oracles.jstar_sets([0.4, 0.4], [REF, REF])
    assert sets[(0,)] == pytest.approx(1.640640, abs=1e-6)
    assert sets[(0, 1)] == pytest.approx(0.82216323, abs=1e-8)


def test_jstar_pair_matches_a_primal_grid_search():
    # the dual value is a lower bound the primal attains: a coarse primal
    # search over both twists must land just above it, never below
    lam = [0.4, 0.4]
    dual = oracles.jstar_sets(lam, [REF, REF])[(0, 1)]
    grid = [0.5 + 0.002 * k for k in range(100)]
    primal = min(oracles.cost_per_drift(lam, [REF, REF], (0, 1), (a, b))
                 for a in grid for b in grid if a < 0.8 and b < 0.8)
    assert dual <= primal <= dual * (1 + 1e-4)


def test_jstar_on_the_f1_instances():
    # independent 1-D Cramér figures for battery instances 4, 6 and 9
    expected = {"4": 1.8611219, "6": 2.8796534, "9": 2.7426031}
    for name, lam, t1, t2, _ in workloads.battery():
        if name in expected:
            assert oracles.jstar(lam, [t1, t2]) == pytest.approx(expected[name], abs=1e-7)


def test_subset_bound_closed_forms():
    # one pair subset: relative entropy over lambda_max, every vertex gives a user 0
    law = [0.5, 0.5, 0.0, 0.0]
    assert oracles.subset_bound([0.4, 0.3], [REF, REF], [[0, 1]], [law]) == pytest.approx(
        math.log(2) / 0.4)
    # singletons at their natural laws cost nothing
    assert oracles.subset_bound([0.4, 0.4], [REF, REF], [[0], [1]],
                                [[0.5, 0.5], [0.5, 0.5]]) == 0.0


def test_no_service_exponent_closed_form():
    # both members read rate 0 with probability 1/4; the busier one gains 0.4 a slot
    assert oracles.no_service_exponent([0.4, 0.3], [REF, REF], [0, 1]) == pytest.approx(
        math.log(4) / 0.4)
    assert oracles.no_service_exponent([0.4], [{1: 1.0}], [0]) == math.inf


def test_sampled_epochs_against_counting():
    for horizon, frac, stride in itertools.product((1, 7, 999, 2500), (0.0, 0.2, 0.5),
                                                   (None, 1, 3)):
        s = stride or -(-horizon // 1000)
        burn = int(frac * horizon)
        count = sum(1 for k in range(1, horizon + 1) if k >= burn and (k - burn) % s == 0)
        assert oracles.sampled_epochs(horizon, frac, stride) == count


def test_hitting_probability_by_hand():
    # one arrival per slot: the queue reaches 1 unless slot 1 and slot 2 both serve
    assert oracles.hitting_probability(REF, "1", 1, 2) == pytest.approx(0.75)
    assert oracles.cumulative_arrivals("2/5", 7) == 2


# ---------------------------------------------------------------------------
# workload checks: a passing output, then a perturbed one


@pytest.fixture(scope="module")
def battery_ops():
    return workloads._battery_ops(workloads._prepare_battery(1), 1)


def test_verify_matching_checks(battery_ops):
    op = op_named(battery_ops, "verify_matching[ref]")
    rep = op.call()
    assert all(outcomes(op.check(rep, {})).values())
    bad = SimpleNamespace(**{**vars(rep), "jstar": rep.jstar * (1 + 1e-5), "gap": 2e-2})
    got = outcomes(op.check(bad, {}))
    assert not got["verify_matching[ref].jstar_vs_oracle"]
    assert not got["verify_matching[ref].gap"]
    assert not got["verify_matching[ref].twist_attains_jstar"]


def _battery_instance(name):
    cfg = workloads._prepare_battery(1)["instances"][name]
    return workloads._lams(cfg), workloads._tables(cfg)


def test_standalone_jstar_check_and_f1(battery_ops):
    truth = oracles.jstar(*_battery_instance("9"))
    op = op_named(battery_ops, "jstar_singleton[9]")
    for real in (2.745880, 2.7774377):  # the program's figures at grid 0.01 and 0.05
        [(name, (ok, _), fault)] = op.check(SimpleNamespace(value=real), {})
        assert (ok, fault) == (False, "F1")
    assert op.check(SimpleNamespace(value=truth), {})[0][1][0]
    assert not op.check(SimpleNamespace(value=truth * (1 + 2e-6)), {})[0][1][0]
    # a value of another shape fails as a new fault, not as F1
    for wrong in (50.0, truth * 1.05, truth * (1 - 1e-5), math.nan):
        [(name, (ok, _), fault)] = op.check(SimpleNamespace(value=wrong), {})
        assert (ok, fault) == (False, None), wrong
    # an instance outside F1 never carries the tag
    other = op_named(battery_ops, "jstar_singleton[2]")
    ref2 = oracles.jstar(*_battery_instance("2"))
    [(_, (ok, _), fault)] = other.check(SimpleNamespace(value=ref2 * 1.001), {})
    assert (ok, fault) == (False, None)


def test_policy_comparison_checks(battery_ops):
    op = op_named(battery_ops, "max_queue_vs_uniform")
    cfg = workloads._prepare_battery(1)["compare"]
    n = oracles.sampled_epochs(cfg.horizon, cfg.burn_in_frac, cfg.sample_stride)

    def curve(ps, samples=n):
        return [SimpleNamespace(level=lv, p_hat=p, samples=samples)
                for lv, p in zip(workloads.SHALLOW_LEVELS, ps)]

    good = {"max_queue": curve([0.4, 0.1, 0.02, 0.003]),
            "uniform_random": curve([0.9, 0.6, 0.3, 0.2])}
    assert all(outcomes(op.check(good, {})).values())
    swapped = {"max_queue": good["uniform_random"], "uniform_random": good["max_queue"]}
    assert not outcomes(op.check(swapped, {}))["max_queue_vs_uniform.dominates"]
    short = {**good, "max_queue": curve([0.4, 0.1, 0.02, 0.003], n - 1)}
    assert not outcomes(op.check(short, {}))["max_queue_vs_uniform.samples"]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    prep = workloads._prepare_reference(1)
    prep["out"] = tmp_path_factory.mktemp("reference-exponent")
    return prep, workloads._reference_ops(prep, 1)


def _write_exponent_outputs(out: Path, jstar: float, fitted: float, p_hats, samples):
    (out / "exponent_fit.json").write_text(json.dumps(
        {"bounds": {"jstar": jstar}, "fit": {"exponent": fitted}}))
    head = "level,p_hat,ci_lo,ci_hi,replicas,method,events,samples,ess,flags"
    rows = [f"{lv},0,0,0,2,direct,0,{samples},," for lv in (10, 15, 20, 25)]
    rows += [f"{lv},{p},0,0,2500,importance,1,2500,1," for lv, p in zip((10, 15, 20, 25), p_hats)]
    (out / "overflow_estimates.csv").write_text("# meta\n" + "\n".join([head] + rows) + "\n")


def test_exponent_checks(reference):
    prep, ops = reference
    op = op_named(ops, "exponent")
    cfg = prep["exponent"]
    truth = oracles.jstar(workloads._lams(cfg), workloads._tables(cfg))
    samples = cfg.replicas * oracles.sampled_epochs(cfg.horizon, cfg.burn_in_frac,
                                                    cfg.sample_stride)
    p_hats = [5e-4, 8e-6, 1.5e-7, 2e-9]
    _write_exponent_outputs(prep["out"], truth, truth * 1.004, p_hats, samples)
    assert all(outcomes(op.check(0, {})).values())
    _write_exponent_outputs(prep["out"], truth * (1 + 1e-5), truth * 1.3,
                            [5e-4, 8e-6, 8e-6, 2e-9], samples + 2)
    got = outcomes(op.check(1, {}))
    assert not any(got.values()), got


def test_importance_enumeration_check(reference):
    _, ops = reference
    op = op_named(ops, "is_1user")
    exact = oracles.hitting_probability(REF, workloads.IS_RATE, workloads.IS_LEVEL,
                                        workloads.IS_HORIZON)

    def est(p):
        return SimpleNamespace(p_hat=p, ci_lo=p - 0.0098, ci_hi=p + 0.0098)  # se = 0.005

    assert op.check(est(exact + 0.01), {})[0][1][0]
    assert not op.check(est(exact + 0.03), {})[0][1][0]


@pytest.fixture(scope="module")
def subset():
    prep = workloads._prepare_subset(1)
    return prep, workloads._subset_ops(prep, 1)


def test_subset_bound_checks(subset):
    prep, ops = subset
    pair_op = op_named(ops, "subset_bound[pair]")
    laws = ((0.4034, 0.3966, 0.1034, 0.0966),)
    value = oracles.subset_bound([0.4, 0.4], [REF, REF], [[0, 1]], laws)
    assert all(outcomes(pair_op.check((value, laws, {}), {})).values())
    assert not any(outcomes(pair_op.check((value * 1.01, laws, {}), {})).values())

    single_op = op_named(ops, "subset_bound[singletons]")
    tilt = (0.6946953436627542, 0.3053046563372458)  # the J* twist as a sub-state law
    value = oracles.subset_bound([0.4, 0.4], [REF, REF], [[0], [1]], (tilt, tilt))
    assert all(outcomes(single_op.check((value, (tilt, tilt), {}), {})).values())
    got = outcomes(single_op.check((value * (1 + 1e-5), (tilt, tilt), {}), {}))
    assert not any(got.values()), got


def test_pair_simulation_check_and_f2(subset):
    _, ops = subset
    op = op_named(ops, "pair_max_exp")
    pinned = {"subset_bound[pair]": (0.4822, None, {"lambda_max_dominated": True})}

    def outcome(exponent, ctx=pinned):
        [(_, (ok, _), fault)] = op.check((None, SimpleNamespace(exponent=exponent)), ctx)
        return ok, fault

    for real in (1.39, 1.63):  # fitted over levels 1-5 and 2-8
        assert outcome(real) == (False, "F2")
    assert outcome(0.50) == (True, None)
    # beyond the no-service ceiling (ln 4 / 0.4 = 3.47), not a number, below
    # the prediction, or with an unpinned bound: a new fault, not F2
    for wrong in (50.0, 3.5, math.nan, math.inf, 0.2):
        assert outcome(wrong) == (False, None), wrong
    unpinned = {"subset_bound[pair]": (0.4822, None, {"lambda_max_dominated": False})}
    assert outcome(1.63, unpinned) == (False, None)


def test_many_user_checks(subset):
    prep, ops = subset
    op = op_named(ops, "pairs16")
    cfg = prep["many"]
    arrived = [oracles.cumulative_arrivals(r, cfg.horizon) for r in cfg.arrival_rates]

    def run(exceed, served_shift=0):
        fhat = [a - 1 for a in arrived]
        fhat[0] += served_shift
        q = [a - s for a, s in zip(arrived, [a - 1 for a in arrived])]
        return SimpleNamespace(exceed_counts=exceed, samples=100,
                               state=SimpleNamespace(f=list(arrived), fhat=fhat, q=q))

    good = {"max_exp": run({2: 10, 3: 0, 4: 0, 6: 0}),
            "round_robin": run({2: 90, 3: 80, 4: 60, 6: 20})}
    assert all(outcomes(op.check(good, {})).values())
    bad = {"max_exp": run({2: 95, 3: 0, 4: 0, 6: 0}, served_shift=1),
           "round_robin": good["round_robin"]}
    got = outcomes(op.check(bad, {}))
    assert not got["pairs16.max_exp_dominates_round_robin"]
    assert not got["pairs16.max_exp.packets_conserved"]
    assert got["pairs16.round_robin.packets_conserved"]


def test_repeat_check():
    assert checks.same_as_first((1.0, 2), (1.0, 2))[0]
    assert not checks.same_as_first((1.0, 2), (1.0 + 1e-15, 2))[0]
