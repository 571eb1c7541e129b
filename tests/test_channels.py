
import math
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsched import JointChannelDistribution, SubsetSystem, SubStateDistribution
from subsetsched.config import load_config

FOUR_STATE = JointChannelDistribution.from_table(
    [(0, 0), (0, 2), (2, 0), (2, 2)], [0.25, 0.25, 0.25, 0.25]
)
ANTI = JointChannelDistribution.from_table([(0, 2), (2, 0)], [0.5, 0.5])


class TestValidation:
    def test_prob_sum_rejected_not_renormalized(self):
        with pytest.raises(ValueError, match="sum"):
            JointChannelDistribution.from_table([(0,), (2,)], [0.5, 0.6])

    def test_negative_prob(self):
        with pytest.raises(ValueError, match="negative"):
            JointChannelDistribution.from_table([(0,), (2,)], [-0.1, 1.1])

    def test_duplicate_state(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointChannelDistribution.from_table([(1,), (1,)], [0.5, 0.5])

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JointChannelDistribution.from_table([(-1,)], [1.0])

    def test_empty_support(self):
        with pytest.raises(ValueError):
            JointChannelDistribution.from_table([], [])

    def test_marginal_index_out_of_range(self):
        with pytest.raises(IndexError):
            FOUR_STATE.user_marginal(2)

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            FOUR_STATE.substate_marginal([])

    def test_blocks_must_partition_users_in_order(self):
        one = SubStateDistribution((1,), ((0,),), (1.0,))
        zero = SubStateDistribution((0,), ((2,),), (1.0,))
        for blocks in [(one,), (zero, zero), (one, zero)]:
            with pytest.raises(ValueError, match="partition"):
                JointChannelDistribution(blocks=blocks, num_users=2)


class TestUserMarginal:
    def test_independent_symmetric(self):
        assert FOUR_STATE.user_marginal(0) == {0: 0.5, 2: 0.5}

    def test_point_mass(self):
        dist = JointChannelDistribution.from_table([(1, 1)], [1.0])
        assert dist.user_marginal(1) == {1: 1.0}

    def test_merges_equal_rates(self):
        # oracle: sum probabilities sharing a rate value
        expected = {}
        for state, p in zip(ANTI.blocks[0].substates, ANTI.blocks[0].probs):
            expected[state[0]] = expected.get(state[0], 0.0) + p
        assert ANTI.user_marginal(0) == expected == {0: 0.5, 2: 0.5}


class TestSubstateMarginal:
    def test_full_subset_is_identity(self):
        sub = FOUR_STATE.substate_marginal([0, 1])
        assert sub == FOUR_STATE.blocks[0]

    def test_single_user_reduces_to_user_marginal(self):
        sub = FOUR_STATE.substate_marginal([0])
        assert {r[0]: p for r, p in zip(sub.substates, sub.probs)} == FOUR_STATE.user_marginal(0)

    def test_direct_restriction(self):
        sub = ANTI.substate_marginal([0, 1])
        assert sub.substates == ((0, 2), (2, 0))
        assert sub.probs == (0.5, 0.5)

    def test_lexicographic_order(self):
        dist = JointChannelDistribution.from_table([(3, 1), (0, 2), (3, 0)], [0.2, 0.5, 0.3])
        sub = dist.substate_marginal([0, 1])
        assert list(sub.substates) == sorted(sub.substates)


class TestMeanRates:
    def test_symmetric_pair(self):
        dist = JointChannelDistribution.from_table([(0, 0), (2, 2)], [0.5, 0.5])
        assert dist.mean_rates() == (1.0, 1.0)

    def test_point_mass(self):
        dist = JointChannelDistribution.from_table([(1, 3)], [1.0])
        assert dist.mean_rates() == (1.0, 3.0)

    def test_anticorrelated(self):
        assert ANTI.mean_rates() == (1.0, 1.0)


class TestSubsetSystem:
    def test_disjoint_computed_not_trusted(self):
        assert SubsetSystem.from_lists([[0], [1]], 2).disjoint
        assert not SubsetSystem.from_lists([[0, 1], [1]], 2).disjoint

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            SubsetSystem.from_lists([[0], [5]], 2)

    def test_coverage_check(self):
        sys2 = SubsetSystem.from_lists([[0]], 2)
        sys2.check_covers([0])
        with pytest.raises(ValueError, match="no observable subset"):
            sys2.check_covers([0, 1])


@st.composite
def joint_distributions(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    n_states = draw(st.integers(min_value=1, max_value=5))
    support = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4) for _ in range(n)]),
            min_size=n_states,
            max_size=n_states,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=len(support), max_size=len(support))
    )
    total = sum(weights)
    return JointChannelDistribution.from_table(support, [w / total for w in weights])


@given(joint_distributions())
@settings(max_examples=60, deadline=None)
def test_marginal_consistency(dist):
    # user marginal equals the unwrapped single-user sub-state marginal,
    # and per-user means agree between the joint and any sub-state view
    means = dist.mean_rates()
    for i in range(dist.num_users):
        sub = dist.substate_marginal([i])
        assert {r[0]: p for r, p in zip(sub.substates, sub.probs)} == pytest.approx(
            dist.user_marginal(i)
        )
        assert sum(r * p for r, p in dist.user_marginal(i).items()) == pytest.approx(means[i])
    full = dist.substate_marginal(range(dist.num_users))
    assert full.mean_rates() == pytest.approx(means)


def test_product_form_reconstruction():
    # for a product-form law and disjoint subsets, the product of sub-state
    # marginals reconstructs the joint restriction on the union
    tables = [{0: 0.3, 1: 0.7}, {0: 0.5, 2: 0.5}, {1: 0.2, 3: 0.8}]
    dist = JointChannelDistribution.product_form(tables)
    a = dist.substate_marginal([0])
    b = dist.substate_marginal([1, 2])
    joint_ab = dist.substate_marginal([0, 1, 2])
    product = {}
    for ra, pa in zip(a.substates, a.probs):
        for rb, pb in zip(b.substates, b.probs):
            product[ra + rb] = pa * pb
    for r, p in zip(joint_ab.substates, joint_ab.probs):
        assert p == pytest.approx(product[r])
    assert set(product) == set(joint_ab.substates)


THREE_TABLES = [{0: 0.3, 1: 0.7}, {0: 0.1, 3: 0.9}, {1: 0.2, 2: 0.5, 4: 0.3}]


def test_product_user_marginals_are_the_input_tables():
    dist = JointChannelDistribution.product_form(THREE_TABLES)
    for i, table in enumerate(THREE_TABLES):
        assert dist.user_marginal(i) == table  # exact, not a sum of products


def test_product_form_agrees_with_its_explicit_table():
    # oracle: the joint table of independent users, written out state by state
    combos = list(product(*(sorted(t.items()) for t in THREE_TABLES)))
    explicit = JointChannelDistribution.from_table(
        [tuple(r for r, _ in c) for c in combos], [math.prod(p for _, p in c) for c in combos]
    )
    dist = JointChannelDistribution.product_form(THREE_TABLES)
    table, written = dist.substate_marginal(range(3)), explicit.blocks[0]
    assert table.substates == written.substates
    assert table.probs == pytest.approx(written.probs, abs=1e-15)
    assert dist.mean_rates() == pytest.approx(explicit.mean_rates(), abs=1e-15)
    assert dist.max_rate == explicit.max_rate == 4
    for size in (1, 2, 3):
        for alpha in combinations(range(3), size):
            ours, theirs = dist.substate_marginal(alpha), explicit.substate_marginal(alpha)
            assert ours.subset == theirs.subset == alpha
            assert ours.substates == theirs.substates
            assert ours.probs == pytest.approx(theirs.probs, abs=1e-15)


def test_forty_user_product_law_keeps_per_user_tables():
    # 2^40 joint states could not be built; every query reads the blocks
    tables = [{"0": 0.5, "2": 0.5}] * 39 + [{"1": 0.25, "3": 0.75}]
    start = time.perf_counter()
    cfg = load_config({
        "num_users": 40,
        "arrival_rates": ["1/100"] * 40,
        "channels": {"kind": "product", "per_user": tables},
        "subsets": [[2 * i, 2 * i + 1] for i in range(20)],
        "policy": {"name": "max_exp"},
        "horizon": 100,
        "levels": [2],
    })
    dist = cfg.build_model().dist
    assert len(dist.blocks) == 40
    sub = dist.substate_marginal([38, 39])
    assert sub.substates == ((0, 1), (0, 3), (2, 1), (2, 3))
    assert sub.probs == (0.125, 0.375, 0.125, 0.375)
    assert dist.user_marginal(39) == {1: 0.25, 3: 0.75}
    assert dist.mean_rates() == (1.0,) * 39 + (2.5,)
    assert dist.max_rate == 3
    assert time.perf_counter() - start < 1.0
