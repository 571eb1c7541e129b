import math

import numpy as np
import pytest

from subsetsched import (
    JointChannelDistribution,
    ScalarRateFunction,
    Simulator,
    SubsetSystem,
    SystemModel,
    fluid_drift_bound,
    region_vertices,
    sanov_rate,
    stability_check,
    tilt_to_mean,
)
from subsetsched.simulate import ArrivalSpec, Policy, rng_from_seed

BINARY = ScalarRateFunction({0: 0.5, 2: 0.5})


def grid_legendre_sup(marginal: dict, x: float, lo=-50.0, hi=50.0, step=1e-4) -> float:
    """Independent oracle: dense-grid sup of eta*x - log mgf(eta)."""
    values = np.array(sorted(marginal))
    probs = np.array([marginal[v] for v in sorted(marginal)])
    etas = np.arange(lo, hi, step)
    z = etas[:, None] * values[None, :] + np.log(probs)[None, :]
    zm = z.max(axis=1)
    log_mgf = zm + np.log(np.exp(z - zm[:, None]).sum(axis=1))
    return float(np.max(etas * x - log_mgf))


class TestLogMgf:
    def test_point_mass_linear(self):
        rf = ScalarRateFunction({1: 1.0})
        for eta in (-2.0, 0.0, 0.7):
            assert rf.log_mgf(eta) == pytest.approx(eta)

    def test_zero_at_zero(self):
        assert BINARY.log_mgf(0.0) == pytest.approx(0.0)

    def test_direct_sum(self):
        assert BINARY.log_mgf(1.0) == pytest.approx(math.log((1 + math.e**2) / 2))

    def test_convexity_spot_check(self):
        for a, b in [(-3.0, 1.0), (0.0, 2.0), (-1.0, -0.2)]:
            mid = BINARY.log_mgf((a + b) / 2)
            assert mid <= (BINARY.log_mgf(a) + BINARY.log_mgf(b)) / 2 + 1e-12


class TestCramerRate:
    def test_zero_at_mean(self):
        assert BINARY.rate(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_atoms(self):
        assert BINARY.rate(2.0) == pytest.approx(math.log(2))
        assert BINARY.rate(0.0) == pytest.approx(math.log(2))

    def test_binary_closed_form(self):
        # oracle: binary relative entropy at mean 1.5 (tilted atom mass 0.75)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert BINARY.rate(1.5) == pytest.approx(expected, abs=1e-9)
        assert BINARY.rate(1.5) == pytest.approx(grid_legendre_sup({0: 0.5, 2: 0.5}, 1.5), abs=1e-6)

    def test_infinite_outside_hull(self):
        assert BINARY.rate(-0.5) == math.inf
        assert BINARY.rate(2.5) == math.inf

    def test_degenerate(self):
        rf = ScalarRateFunction({3: 1.0})
        assert rf.rate(3.0) == 0.0
        assert rf.rate(2.9) == math.inf

    def test_matches_grid_oracle_random(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(5):
            k = int(rng.integers(2, 5))
            vals = sorted(rng.choice(np.arange(0, 6), size=k, replace=False).tolist())
            probs = rng.dirichlet(np.ones(k))
            marg = {int(v): float(p) for v, p in zip(vals, probs)}
            rf = ScalarRateFunction(marg)
            for x in rng.uniform(rf.r_min, rf.r_max, size=4):
                assert rf.rate(float(x)) == pytest.approx(
                    grid_legendre_sup(marg, float(x)), abs=1e-6
                )

    def test_convexity_property(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            x, y = rng.uniform(0.0, 2.0, size=2)
            assert BINARY.rate((x + y) / 2) <= (BINARY.rate(x) + BINARY.rate(y)) / 2 + 1e-9


class TestTilt:
    def test_zero_tilt_at_mean(self):
        t = tilt_to_mean(BINARY, 1.0)
        assert t.tilt == 0.0
        assert t.probs == t.base_probs

    def test_tilt_down(self):
        t = tilt_to_mean(BINARY, 0.5)
        assert t.probs[1] == pytest.approx(0.25, abs=1e-12)
        assert t.tilt == pytest.approx(-math.log(3) / 2, abs=1e-9)

    def test_tilt_up_symmetry(self):
        t = tilt_to_mean(BINARY, 1.5)
        assert t.probs[1] == pytest.approx(0.75, abs=1e-12)
        assert t.tilt == pytest.approx(math.log(3) / 2, abs=1e-9)

    def test_mean_matches_target(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            phi = float(rng.uniform(0.01, 1.99))
            t = tilt_to_mean(BINARY, phi)
            assert t.mean() == pytest.approx(phi, abs=1e-9)

    def test_duality(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(50):
            phi = float(rng.uniform(0.05, 1.95))
            t = tilt_to_mean(BINARY, phi)
            assert BINARY.rate(phi) == pytest.approx(
                t.tilt * phi - BINARY.log_mgf(t.tilt), abs=1e-8
            )

    def test_outside_hull_rejected(self):
        with pytest.raises(ValueError):
            tilt_to_mean(BINARY, 2.5)
        with pytest.raises(ValueError):
            tilt_to_mean(BINARY, 0.0)


class TestSanov:
    def setup_method(self):
        dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}])
        self.sub = dist.substate_marginal([0])

    def test_zero_at_itself(self):
        assert sanov_rate(self.sub, [0.5, 0.5]) == 0.0

    def test_direct_formula(self):
        expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
        assert sanov_rate(self.sub, [0.9, 0.1]) == pytest.approx(expected)

    def test_support_violation(self):
        dist = JointChannelDistribution.from_table([(1,), (2,)], [1.0, 0.0])
        sub = dist.substate_marginal([0])
        assert sanov_rate(sub, [0.5, 0.5]) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sanov_rate(self.sub, [1.0])

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            sanov_rate(self.sub, [0.7, 0.7])

    def test_contraction_to_cramer(self):
        # min over simplex distributions with a prescribed mean of the
        # relative entropy equals the Cramér rate of that mean
        dist = JointChannelDistribution.from_table([(0,), (1,), (3,)], [0.3, 0.4, 0.3])
        sub = dist.substate_marginal([0])
        rf = ScalarRateFunction(dist.user_marginal(0))
        rates = np.array([r[0] for r in sub.substates], dtype=float)
        for target in (0.8, 1.3, 2.0):
            best = math.inf
            grid = np.arange(0.0, 1.0001, 0.002)
            for p0 in grid:
                # solve p1, p2 from the simplex and mean constraints
                # p1 + p2 = 1 - p0 ; 1*p1 + 3*p2 = target - 0*p0
                p2 = (target - (1 - p0)) / 2.0
                p1 = 1 - p0 - p2
                if p1 < -1e-12 or p2 < -1e-12:
                    continue
                phi = [p0, max(p1, 0.0), max(p2, 0.0)]
                s = sum(phi)
                phi = [v / s for v in phi]
                if abs(float(np.dot(phi, rates)) - target) > 1e-9:
                    continue
                best = min(best, sanov_rate(sub, phi))
            assert best == pytest.approx(rf.rate(target), abs=1e-4)


class TestRegionVertices:
    def test_singleton_single_vertex(self):
        dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}])
        sub = dist.substate_marginal([0])
        region = region_vertices(sub, [0.25, 0.75])
        assert len(region.vertices) == 1
        assert region.vertices[0][0] == pytest.approx(0.25 * 0 + 0.75 * 2)

    def test_two_user_enumeration(self):
        dist = JointChannelDistribution.from_table([(2, 0), (0, 2)], [0.5, 0.5])
        sub = dist.substate_marginal([0, 1])
        region = region_vertices(sub, [0.5, 0.5])
        assert set(region.vertices) == {(1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 1.0)}
        assert all(0 <= x <= dist.max_rate for v in region.vertices for x in v)
        # (0.5, 0.5) lies in the hull: midpoint of (1,1) and (0,0)
        verts = np.array(region.vertices)
        target = np.array([0.5, 0.5])
        coeffs = np.linalg.lstsq(
            np.vstack([verts.T, np.ones(len(verts))]),
            np.concatenate([target, [1.0]]),
            rcond=None,
        )[0]
        assert np.all(coeffs > -1e-9)

    def test_point_mass_phi(self):
        dist = JointChannelDistribution.from_table([(2, 1), (0, 2)], [0.5, 0.5])
        sub = dist.substate_marginal([0, 1])
        phi = [1.0, 0.0]  # point mass on sub-state (0,2)... ordered lexicographically
        region = region_vertices(sub, phi)
        r0 = sub.substates[0]
        expected = {tuple(r0[i] if j == i else 0.0 for j in range(2)) for i in range(2)}
        assert set(region.vertices) == expected

    def test_cap(self):
        # 25 sub-states of a pair: 2**25 winner maps, refused before enumerating
        five = {r: 0.2 for r in range(5)}
        sub = JointChannelDistribution.product_form([five, five]).substate_marginal([0, 1])
        with pytest.raises(ValueError, match="cap"):
            region_vertices(sub)

    def test_vertex_achievable_by_simulation(self):
        # drive a fixed winner map with saturated queues; empirical service
        # rates converge to the vertex coordinates
        dist = JointChannelDistribution.from_table(
            [(2, 0), (0, 2), (1, 1)], [0.3, 0.3, 0.4]
        )
        subsets = SubsetSystem.from_lists([[0, 1]], 2)
        model = SystemModel(
            dist=dist, subsets=subsets, arrivals=ArrivalSpec.from_values([0, 0])
        )
        sim = Simulator(model)
        sub = sim.sub_dists[0]
        winner = {0: 0, 1: 1, 2: 0}  # substate index -> member position

        class WinnerPolicy(Policy):
            def choose_subset(self, q, k):
                return 0

            def choose_user(self, subset_id, rates, q):
                rid = sub.substates.index(tuple(rates))
                return subsets.subsets[0][winner[rid]]

        vertex = [0.0, 0.0]
        for rid, (r, p) in enumerate(zip(sub.substates, sub.probs)):
            vertex[winner[rid]] += p * r[winner[rid]]
        horizon = 100_000
        res = sim.run(WinnerPolicy(), horizon, rng_from_seed(19, 1, 0), q0=[10**6, 10**6])
        for i in range(2):
            assert res.state.fhat[i] / horizon == pytest.approx(vertex[i], rel=0.02)


class TestStability:
    def setup_method(self):
        self.dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}])
        self.singles = SubsetSystem.from_lists([[0], [1]], 2)

    def test_stable_with_margin(self):
        rep = stability_check([0.4, 0.4], self.dist, self.singles)
        assert rep.status == "stable_interior"
        assert rep.margin == pytest.approx(0.2)

    def test_unstable(self):
        rep = stability_check([0.6, 0.6], self.dist, self.singles)
        assert rep.status == "unstable"

    def test_zero_arrivals_maximal_margin(self):
        rep = stability_check([0.0, 0.0], self.dist, self.singles)
        assert rep.status == "stable_interior"
        assert rep.margin == pytest.approx(1.0)

    def test_general_disjoint_lp(self):
        pair = SubsetSystem.from_lists([[0, 1]], 2)
        rep = stability_check([0.4, 0.4], self.dist, pair)
        assert rep.status == "stable_interior"
        assert rep.margin > 0
        rep2 = stability_check([1.2, 1.2], self.dist, pair)
        assert rep2.status == "unstable"

    @pytest.mark.parametrize("lam,margin", [([0.4, 0.4, 0.0], 0.2), ([0.0, 0.0, 0.0], 1.0)])
    def test_margin_is_one_minus_load_on_both_branches(self, lam, margin):
        # user 2 alone in its subset or paired with user 1: the same headroom
        dist = JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}] * 3)
        singles = stability_check(lam, dist, SubsetSystem.from_lists([[0], [1], [2]], 3))
        general = stability_check(lam, dist, SubsetSystem.from_lists([[0], [1, 2]], 3))
        assert singles.status == general.status == "stable_interior"
        assert singles.margin == pytest.approx(margin, abs=1e-12)
        assert general.margin == pytest.approx(margin, abs=1e-9)

    def test_non_disjoint_rejected(self):
        overlapping = SubsetSystem.from_lists([[0, 1], [1]], 2)
        with pytest.raises(ValueError, match="disjoint"):
            stability_check([0.1, 0.1], self.dist, overlapping)

    def test_fluid_drift_bound(self):
        assert fluid_drift_bound([0.6, 0.6], self.dist, self.singles) == pytest.approx(0.1)
