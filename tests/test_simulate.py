from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsched import (
    ArrivalSpec,
    JointChannelDistribution,
    MaxExp,
    MaxQueue,
    PolicyViolationError,
    Simulator,
    SubsetSystem,
    SystemModel,
    check_invariants,
    scaled_path,
)
from subsetsched.simulate import Policy, _UniformStream, rng_from_seed


def single_user_model(lam, rates):
    return SystemModel(
        dist=JointChannelDistribution.product_form([rates]),
        subsets=SubsetSystem.from_lists([[0]], 1),
        arrivals=ArrivalSpec.from_values([lam]),
    )


class FixedPolicy(Policy):
    """Always the same subset; lowest-id user (test scaffolding)."""

    def __init__(self, subsets, subset_id=0):
        self.members = subsets.subsets
        self.subset_id = subset_id

    def choose_subset(self, q, k):
        return self.subset_id

    def choose_user(self, subset_id, rates, q):
        return self.members[subset_id][0]


class TestArrivalSpec:
    def test_integer_schedule_running_average(self):
        spec = ArrivalSpec.from_values(["2/5", 0.3, 1])
        horizon = 1000
        totals = [0, 0, 0]
        for k in range(horizon):
            for i, a in enumerate(spec.increments(k)):
                totals[i] += a
        assert totals == [int(horizon * f) for f in (Fraction(2, 5), Fraction(3, 10), 1)]
        assert spec.cumulative(horizon) == tuple(totals)

    def test_decimal_float_is_exact(self):
        assert ArrivalSpec.from_values([0.4]).rates[0] == Fraction(2, 5)

    def test_period(self):
        assert ArrivalSpec.from_values(["2/5", "1/3"]).period == 15

    def test_increments_bounded(self):
        spec = ArrivalSpec.from_values(["7/3"])
        vals = {spec.increments(k)[0] for k in range(30)}
        assert vals <= {2, 3}


class TestStep:
    def test_update_rule_arithmetic(self):
        # queue 5, arrivals 2, rate 3 -> queue 4
        model = single_user_model(2, {3: 1.0})
        sim = Simulator(model)
        state = sim.initial_state([5])
        sim.step(state, FixedPolicy(model.subsets), rng_from_seed(0))
        assert state.q == [4]
        assert state.fhat == [3]

    def test_positive_part(self):
        # queue 1, no arrivals, rate 3 -> queue 0 (serves only what exists)
        model = single_user_model(0, {3: 1.0})
        sim = Simulator(model)
        state = sim.initial_state([1])
        sim.step(state, FixedPolicy(model.subsets), rng_from_seed(0))
        assert state.q == [0]
        assert state.fhat == [1]

    def test_unscheduled_queue_only_arrives(self):
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{3: 1.0}, {2: 1.0}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values([0, 1]),
        )
        sim = Simulator(model)
        state = sim.initial_state([5, 0])
        sim.step(state, FixedPolicy(model.subsets, subset_id=0), rng_from_seed(0))
        assert state.q[1] == 1  # exactly its arrival
        assert state.c[1] == 0
        assert state.g[1] == [0]
        assert state.ghat[1] == [[0]]

    def test_policy_violations_abort(self):
        model = single_user_model(0, {1: 1.0})
        sim = Simulator(model)

        class BadSubset(FixedPolicy):
            def choose_subset(self, q, k):
                return 7

        class BadUser(FixedPolicy):
            def choose_user(self, subset_id, rates, q):
                return 3

        with pytest.raises(PolicyViolationError):
            sim.step(sim.initial_state(), BadSubset(model.subsets), rng_from_seed(0))
        with pytest.raises(PolicyViolationError):
            sim.step(sim.initial_state(), BadUser(model.subsets), rng_from_seed(0))


class TestRun:
    def test_zero_arrivals_zero_path(self):
        model = single_user_model(0, {1: 1.0})
        sim = Simulator(model)
        res = sim.run(FixedPolicy(model.subsets), 500, rng_from_seed(1, 1, 0), record_path=True)
        assert res.peak == 0
        assert np.all(res.path == 0)

    def test_unit_load_constant_queue(self):
        # single user, rate always 1, arrivals 1/slot: queue stays at q0
        model = single_user_model(1, {1: 1.0})
        sim = Simulator(model)
        res = sim.run(
            MaxQueue(model.subsets), 100, rng_from_seed(2, 1, 0), q0=[3], record_path=True
        )
        assert np.all(res.path == 3)

    def test_overloaded_growth_rate(self):
        # arrivals far outside the region: total queue grows at least at
        # sum(lam) - max rate per slot; the longest queue at 1/N of that
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values([2, 2]),
        )
        sim = Simulator(model)
        horizon = 10_000
        res = sim.run(MaxQueue(model.subsets), horizon, rng_from_seed(3, 1, 0), record_path=True)
        k = np.arange(horizon + 1)
        total = res.path.sum(axis=1)
        slope_total = np.polyfit(k, total, 1)[0]
        bound = 2 + 2 - 1  # sum of arrival rates minus the best rate
        assert slope_total >= bound - 1e-9
        slope_max = np.polyfit(k, res.path.max(axis=1), 1)[0]
        assert slope_max >= bound / 2 - 0.05

    def test_bit_identical_reruns(self):
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values(["2/5", "2/5"]),
        )
        sim = Simulator(model)

        def summary():
            res = sim.run(MaxQueue(model.subsets), 20_000, rng_from_seed(4, 1, 0), levels=[3, 5])
            return (res.peak, tuple(res.state.q), tuple(sorted(res.first_hit.items())),
                    tuple(sorted(res.exceed_counts.items())), res.samples)

        assert summary() == summary()

    def test_first_hit_and_counters(self, reference_model):
        sim = Simulator(reference_model)
        res = sim.run(MaxQueue(reference_model.subsets), 5000, rng_from_seed(5, 1, 0), levels=[1, 50])
        assert res.first_hit[1] is not None and res.first_hit[1] >= 1
        assert res.first_hit[50] is None
        assert sum(res.state.c) == 5000

    def test_hitting_attempt_cut_at_max_slots_is_truncated(self, reference_model):
        # the first arrival comes at slot 2, so two slots can neither hit
        # the level nor end the attempt at an empty system
        sim = Simulator(reference_model)
        policy = MaxQueue(reference_model.subsets)
        hit, _, slots, truncated = sim.run_hitting(policy, 5, rng_from_seed(8), max_slots=2)
        assert (hit, slots, truncated) == (False, 2, True)
        # a horizon is the attempt's own end, not a truncation
        assert sim.run_hitting(policy, 5, rng_from_seed(8), horizon=2)[3] is False

    def test_horizon_validation(self):
        model = single_user_model(0, {1: 1.0})
        with pytest.raises(ValueError):
            Simulator(model).run(FixedPolicy(model.subsets), 0, rng_from_seed(0))


class TestTraceReplay:
    @pytest.mark.parametrize("policy_cls", [MaxQueue, MaxExp])
    def test_replay_reproduces_path(self, reference_model, policy_cls):
        sim = Simulator(reference_model)
        policy = policy_cls(reference_model.subsets)
        res = sim.run(
            policy, 3000, rng_from_seed(6, 1, 0), record_trace=True, record_path=True
        )
        replayed = sim.replay(res.trace, policy_cls(reference_model.subsets))
        assert np.array_equal(replayed, res.path)

    def test_trace_lengths_partition_slots(self, reference_model):
        sim = Simulator(reference_model)
        res = sim.run(MaxQueue(reference_model.subsets), 1234, rng_from_seed(7, 1, 0),
                      record_trace=True)
        assert res.trace.total_slots() == 1234
        assert [len(v) for v in res.trace.per_subset] == list(res.state.c)


class RandomPolicy(Policy):
    """Uniformly random subset and member (stress for the bookkeeping)."""

    def __init__(self, subsets, rng):
        self.members = subsets.subsets
        self._stream = _UniformStream(rng)

    def choose_subset(self, q, k):
        m = len(self.members)
        return min(int(self._stream.next() * m), m - 1)

    def choose_user(self, subset_id, rates, q):
        members = self.members[subset_id]
        return members[min(int(self._stream.next() * len(members)), len(members) - 1)]


@st.composite
def small_models(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for _ in range(n):
        k = draw(st.integers(min_value=1, max_value=3))
        rates = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k,
                              unique=True))
        weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
        total = sum(weights)
        tables.append({r: w / total for r, w in zip(rates, weights)})
    # random cover of all users by disjoint-or-not subsets
    ids = list(range(n))
    cut = draw(st.integers(min_value=1, max_value=n))
    subsets = [ids[:cut]] + ([ids[cut:]] if cut < n else [])
    if draw(st.booleans()):
        subsets = [[i] for i in ids]
    lams = [draw(st.sampled_from(["0", "1/3", "2/5", "1"])) for _ in range(n)]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return tables, subsets, lams, seed


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_invariants_hold_under_random_policies(params):
    tables, subsets, lams, seed = params
    model = SystemModel(
        dist=JointChannelDistribution.product_form(tables),
        subsets=SubsetSystem.from_lists(subsets, len(tables)),
        arrivals=ArrivalSpec.from_values(lams),
    )
    sim = Simulator(model)
    policy = RandomPolicy(model.subsets, rng_from_seed(seed, 2, 0))
    res = sim.run(policy, 400, rng_from_seed(seed, 1, 0), q0=[1] * len(tables), check_every=1)
    check_invariants(sim, res.state)


class TestScaledPath:
    def test_constant_path(self):
        path = np.full((21, 1), 7)
        for n in (1, 4, 10):
            sp = scaled_path(path, n)
            assert np.all(sp.values == 7 / n)

    def test_linear_invariance(self):
        path = np.arange(11)[:, None]
        sp = scaled_path(path, 10)
        # q(t) = t on [0, 1]
        for t in (0.0, 0.25, 0.5, 1.0):
            assert sp.at(t)[0] == pytest.approx(t)

    def test_lipschitz_constant(self, reference_model):
        sim = Simulator(reference_model)
        res = sim.run(MaxQueue(reference_model.subsets), 2000, rng_from_seed(8, 1, 0),
                      record_path=True)
        sp = scaled_path(res.path, 20)
        bound = max(max(reference_model.arrivals.floats()), reference_model.dist.max_rate)
        assert sp.lipschitz_constant() <= bound + 1e-9

    def test_two_scalings_close(self, reference_model):
        # same history at scalings 10 and 20: on the common grid the two
        # compressions differ by at most peak/10 (both are within peak/n
        # of zero at matching times of a stable path)
        sim = Simulator(reference_model)
        res = sim.run(MaxQueue(reference_model.subsets), 4000, rng_from_seed(9, 1, 0),
                      record_path=True)
        q10 = scaled_path(res.path, 10)
        q20 = scaled_path(res.path, 20)
        peak = res.path.max()
        common = np.arange(0.0, min(q10.duration, q20.duration), 0.1)
        gap = max(
            float(np.max(np.abs(q10.at(t) - q20.at(t)))) for t in common
        )
        assert gap <= peak / 10 + 1e-9

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_path(np.zeros((5, 1)), 0)


def test_service_accounting_bound(reference_model):
    sim = Simulator(reference_model)
    res = sim.run(MaxQueue(reference_model.subsets), 5000, rng_from_seed(10, 1, 0))
    state = res.state
    for u in range(2):
        cap = sum(
            row[0] * sim.sub_states[u][rid][0]
            for rid, row in enumerate(state.ghat[u])
        )
        assert state.fhat[u] <= cap
    assert sum(state.fhat) <= sum(state.m)


def test_invariants_with_overlapping_subsets():
    # the dynamics and bookkeeping do not need disjoint subsets (only the
    # optimality analysis does): audit a shared-user system
    model = SystemModel(
        dist=JointChannelDistribution.product_form(
            [{0: 0.5, 2: 0.5}, {0: 0.3, 1: 0.7}, {1: 1.0}]
        ),
        subsets=SubsetSystem.from_lists([[0, 1], [1, 2]], 3),
        arrivals=ArrivalSpec.from_values(["1/3", "1/4", "1/5"]),
    )
    assert not model.subsets.disjoint
    sim = Simulator(model)
    policy = RandomPolicy(model.subsets, rng_from_seed(55, 2, 0))
    res = sim.run(policy, 5000, rng_from_seed(55, 1, 0), check_every=1)
    check_invariants(sim, res.state)
