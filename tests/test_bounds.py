import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from subsetsched import bounds
from subsetsched import (
    JointChannelDistribution,
    ScalarRateFunction,
    SubsetSystem,
    UnstableArrivalsError,
    cost_per_drift,
    drift_solve,
    jstar_singleton,
    minimize_subset_upper_bound,
    region_vertices,
    subset_upper_bound,
    tilt_to_mean,
    upper_bound_eval,
    upper_bound_min,
    verify_matching,
)

from conftest import random_marginal, random_stable_two_user_instance

BINARY = {0: 0.5, 2: 0.5}


def criterion_3_battery():
    """Acceptance criterion 3's instances: the reference pair, then ten random ones."""
    rng = np.random.Generator(np.random.PCG64(303))
    return [([0.4, 0.4], BINARY, BINARY)] + [random_stable_two_user_instance(rng)
                                             for _ in range(10)]


class TestDriftSolve:
    def test_hand_solved_system(self):
        sol = drift_solve((0, 1), (0.5, 0.5), (0.4, 0.4))
        assert sol is not None
        assert sol.w == pytest.approx(0.15)
        assert sol.c == pytest.approx((0.5, 0.5))

    def test_negative_drift_infeasible(self):
        assert drift_solve((0, 1), (0.5, 0.5), (0.2, 0.2)) is None

    def test_single_queue(self):
        assert drift_solve((0,), (0.5,), (0.4,)) is None  # w = -0.1
        sol = drift_solve((0,), (0.3,), (0.4,))
        assert sol is not None and sol.w == pytest.approx(0.1) and sol.c == (1.0,)

    def test_zero_phi_infeasible(self):
        assert drift_solve((0, 1), (0.0, 0.5), (0.4, 0.4)) is None

    def test_residual_uniqueness(self):
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(200):
            lam = rng.uniform(0.1, 1.0, size=3)
            phi = rng.uniform(0.05, 2.0, size=3)
            sol = drift_solve((0, 1, 2), phi, lam)
            if sol is None:
                continue
            for pos in range(3):
                assert abs(lam[pos] - sol.c[pos] * phi[pos] - sol.w) < 1e-12
            assert sum(sol.c) == pytest.approx(1.0, abs=1e-12)


class TestCostPerDrift:
    def test_composition_oracle(self):
        # c = (1/2, 1/2), w = 0.15, per-user cost rate(0.5); assembled by hand
        rfs = [ScalarRateFunction(BINARY), ScalarRateFunction(BINARY)]
        expected = (0.5 * rfs[0].rate(0.5) + 0.5 * rfs[1].rate(0.5)) / 0.15
        got = cost_per_drift((0, 1), (0.5, 0.5), (0.4, 0.4), rfs)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.872078, abs=1e-5)

    def test_zero_cost_needs_unstable(self):
        # twists at the means cost nothing; feasible only outside the region
        rfs = [ScalarRateFunction(BINARY), ScalarRateFunction(BINARY)]
        assert cost_per_drift((0, 1), (1.0, 1.0), (0.6, 0.6), rfs) == 0.0
        with pytest.raises(ValueError, match="infeasible"):
            cost_per_drift((0, 1), (1.0, 1.0), (0.4, 0.4), rfs)

    def test_infeasible_raises(self):
        rfs = [ScalarRateFunction(BINARY)]
        with pytest.raises(ValueError, match="infeasible"):
            cost_per_drift((0,), (0.5,), (0.4,), rfs)


def jstar_1d_grid_oracle(lam: float, marginal: dict, step=1e-4) -> float:
    """inf over phi < lam of rate(phi) / (lam - phi) by dense scan."""
    rf = ScalarRateFunction(marginal)
    best = math.inf
    phi = rf.r_min + step
    while phi < lam - 1e-12:
        best = min(best, rf.rate(phi) / (lam - phi))
        phi += step
    return best


class TestJstarSingleton:
    def test_one_user_grid_oracle(self):
        res = jstar_singleton([0.4], [BINARY])
        assert res.value == pytest.approx(jstar_1d_grid_oracle(0.4, BINARY), abs=1e-3)
        assert res.subset == (0,)

    def test_symmetric_two_user_grid_oracle(self):
        # symmetric pair subset reduces to a 1-D problem:
        # f(phi) = rate(phi) / (0.4 - phi/2), scanned densely
        rf = ScalarRateFunction(BINARY)
        xs = np.arange(0.401, 0.799, 1e-4)
        oracle = min(rf.rate(float(x)) / (0.4 - x / 2) for x in xs)
        res = jstar_singleton([0.4, 0.4], [BINARY, BINARY])
        assert res.value == pytest.approx(oracle, abs=1e-3)
        assert res.subset == (0, 1)
        assert res.phi[0] == pytest.approx(res.phi[1], abs=1e-5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableArrivalsError):
            jstar_singleton([0.6, 0.6], [BINARY, BINARY])

    def test_per_subset_diagnostics(self):
        res = jstar_singleton([0.4, 0.4], [BINARY, BINARY])
        assert set(res.per_subset) == {(0,), (1,), (0, 1)}
        assert res.value == min(res.per_subset.values())

    @pytest.mark.parametrize("trial, expected", [(4, 1.8611219), (6, 2.8796534), (9, 2.7426031)])
    def test_exact_at_r_min_edge(self, trial, expected):
        # criterion 3's battery instances whose optimum sits where one
        # user's twist reaches rate 0; values from the Lagrange dual
        rng = np.random.Generator(np.random.PCG64(303))
        for _ in range(trial + 1):
            lam, t1, t2 = random_stable_two_user_instance(rng)
        res = jstar_singleton(lam, [t1, t2])
        assert res.value == pytest.approx(expected, rel=1e-6)
        assert abs(res.dual_gap) <= 1e-12 * res.value

    def test_three_users_attained_and_not_beaten(self):
        lam = [0.3, 0.25, 0.2]
        margs = [BINARY, {0: 0.4, 1: 0.3, 3: 0.3}, {0: 0.3, 2: 0.7}]
        rfs = [ScalarRateFunction(m) for m in margs]
        res = jstar_singleton(lam, margs)
        assert len(res.per_subset) == 7
        assert cost_per_drift(res.subset, res.phi, lam, rfs) == pytest.approx(res.value, rel=1e-12)
        assert res.dual_gap >= -1e-12 * res.value
        rng = np.random.Generator(np.random.PCG64(47))
        checked = 0
        for members, value in res.per_subset.items():
            lo = np.array([rfs[i].r_min for i in members])
            hi = np.array([rfs[i].mean for i in members])
            for _ in range(60):
                phi = lo + rng.random(len(members)) * (hi - lo)
                if drift_solve(members, phi, lam) is not None:
                    assert cost_per_drift(members, phi, lam, rfs) >= value * (1 - 1e-12)
                    checked += 1
        # small moves around the winner's own twist
        for _ in range(100):
            lo = np.array([rfs[i].r_min for i in res.subset])
            hi = np.array([rfs[i].mean for i in res.subset])
            phi = np.clip(np.array(res.phi) * (1 + 1e-3 * rng.normal(size=len(res.phi))), lo, hi)
            if drift_solve(res.subset, phi, lam) is not None:
                assert cost_per_drift(res.subset, phi, lam, rfs) >= res.value * (1 - 1e-12)
                checked += 1
        assert checked > 150

    def test_unreachable_sets_stay_infinite(self):
        # a user without arrivals, or a point-mass channel faster than its
        # arrivals, can never overflow on its own
        res = jstar_singleton([0.0, 0.3, 0.4], [BINARY, {1: 1.0}, BINARY])
        for members, value in res.per_subset.items():
            if 0 in members or members == (1,):
                assert value == math.inf
            else:
                assert math.isfinite(value) and value > 0
        assert res.value == min(res.per_subset.values())


class TestUpperBoundEval:
    def test_feasible_point_lower_bounds_sup(self):
        # the drift-equalizing allocation at phi=(1/2,1/2) is one feasible
        # point, so the sup is at least its value
        val = upper_bound_eval([0.4, 0.4], [0.5, 0.5], [BINARY, BINARY])
        assert val >= 0.872078 - 1e-6

    def test_inside_hull_infinite(self):
        # lam inside the scaled simplex: sum lam_i/phi_i <= 1
        assert upper_bound_eval([0.4, 0.4], [1.0, 1.0], [BINARY, BINARY]) == math.inf

    def test_outside_domain_infinite(self):
        assert upper_bound_eval([0.4, 0.4], [2.5, 0.5], [BINARY, BINARY]) == math.inf

    def test_grid_vs_candidates(self):
        # the inner sup on a twist's costs equals upper_bound_eval there
        from subsetsched.bounds import _inner_sup_users

        rng = np.random.Generator(np.random.PCG64(41))
        rf = ScalarRateFunction(BINARY)
        for _ in range(20):
            lam = rng.uniform(0.1, 0.45, size=2)
            phis = rng.uniform(0.5, 1.4, size=(8, 2))
            phis = phis[lam[0] / phis[:, 0] + lam[1] / phis[:, 1] > 1.0]
            for phi in phis:
                value, _ = _inner_sup_users(lam, phi, np.array([rf.rate(p) for p in phi]))
                full = upper_bound_eval(lam, phi, [BINARY, BINARY])
                assert value == pytest.approx(full, rel=1e-6, abs=1e-9)

    def test_permutation_equivariance(self):
        lam = [0.3, 0.45]
        phi = [0.5, 0.7]
        margs = [BINARY, {0: 0.3, 1: 0.4, 3: 0.3}]
        v1 = upper_bound_eval(lam, phi, margs)
        v2 = upper_bound_eval(lam[::-1], phi[::-1], margs[::-1])
        assert v1 == pytest.approx(v2, rel=1e-9)


def random_inner_sup_instance(rng, n):
    """Arrivals outside the twisted hull, some users starved or without arrivals."""
    while True:
        lam = rng.uniform(0.05, 1.0, size=n) * (rng.random(n) > 0.15)
        phi = rng.uniform(0.05, 1.5, size=n) * (rng.random(n) > 0.2)
        lstar = rng.uniform(0.0, 3.0, size=n)
        starved = ((phi == 0) & (lam > 0)).any()
        load = sum(l / p for l, p in zip(lam, phi) if l > 0 and p > 0)
        if lam.max() > 0 and (starved or load > 1.02):
            return lam, phi, lstar


def charnes_cooper_sup(lam, phi, lstar):
    """The inner sup as the Charnes-Cooper LP over (y, t) = (c / D(c), 1 / D(c)):
    max lstar.y  s.t.  lambda_i t - phi_i y_i <= 1,  sum y = t,  y, t >= 0."""
    n = len(lam)
    a_ub = np.hstack([-np.diag(phi), lam[:, None]])
    a_eq = np.concatenate([np.ones(n), [-1.0]])[None, :]
    res = linprog(-np.concatenate([lstar, [0.0]]), A_ub=a_ub, b_ub=np.ones(n),
                  A_eq=a_eq, b_eq=[0.0], bounds=[(0.0, None)] * (n + 1), method="highs")
    assert res.success
    return -res.fun


def simplex_grid(n, steps):
    """Every point of the c-simplex with coordinates in multiples of 1 / steps."""
    return np.array([[k / steps for k in ks] + [1.0 - sum(ks) / steps]
                     for ks in itertools.product(range(steps + 1), repeat=n - 1)
                     if sum(ks) <= steps])


class TestInnerSup:
    def test_matches_charnes_cooper_lp(self):
        from subsetsched.bounds import _inner_sup_users

        rng = np.random.Generator(np.random.PCG64(53))
        for n in range(1, 6):
            for _ in range(40):
                lam, phi, lstar = random_inner_sup_instance(rng, n)
                value, c = _inner_sup_users(lam, phi, lstar)
                assert value == pytest.approx(charnes_cooper_sup(lam, phi, lstar), rel=1e-9)
                # the returned frequencies attain the value
                assert c.min() >= 0 and c.sum() == pytest.approx(1.0, abs=1e-9)
                den = np.max(lam - c * phi)
                assert c @ lstar / den == pytest.approx(value, rel=1e-12)

    def test_no_grid_point_reads_above(self):
        from subsetsched.bounds import _inner_sup_users

        rng = np.random.Generator(np.random.PCG64(59))
        for n in (1, 2, 3):
            grid = simplex_grid(n, 100)
            for _ in range(30):
                lam, phi, lstar = random_inner_sup_instance(rng, n)
                value, _ = _inner_sup_users(lam, phi, lstar)
                den = np.max(lam - grid * phi, axis=1)
                assert np.max(grid @ lstar / den) <= value * (1 + 1e-12)


class TestUpperBoundMin:
    def test_matches_jstar_symmetric(self):
        jr = jstar_singleton([0.4, 0.4], [BINARY, BINARY])
        ub, phi_hat, _ = upper_bound_min([0.4, 0.4], [BINARY, BINARY])
        assert ub == pytest.approx(jr.value, abs=1e-3)

    def test_one_user_formulas_coincide(self):
        jr = jstar_singleton([0.4], [BINARY])
        ub, _, _ = upper_bound_min([0.4], [BINARY])
        assert ub == pytest.approx(jr.value, abs=1e-6)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableArrivalsError):
            upper_bound_min([0.6, 0.6], [BINARY, BINARY])


class TestCostDominatesUpperBound:
    def test_fs_dominates_drift_allocation_point(self):
        # f_S at a feasible twist dominates the bound value of the twist
        # extended by the means off S, evaluated at the drift-equalizing
        # frequencies (whose denominator picks up the unserved arrivals)
        lam = [0.4, 0.4]
        rfs = [ScalarRateFunction(BINARY), ScalarRateFunction(BINARY)]
        rng = np.random.Generator(np.random.PCG64(43))
        checked = 0
        for _ in range(50):
            phi0 = float(rng.uniform(0.05, 0.39))
            sol = drift_solve((0,), (phi0,), lam)
            if sol is None:
                continue
            fs = cost_per_drift((0,), (phi0,), lam, rfs)
            point_value = rfs[0].rate(phi0) / max(sol.w, lam[1])
            assert fs >= point_value - 1e-12
            checked += 1
        assert checked > 10

    def test_full_sup_matches_fs_at_optimizer(self):
        lam = [0.4, 0.4]
        rfs = [ScalarRateFunction(BINARY), ScalarRateFunction(BINARY)]
        jr = jstar_singleton(lam, [BINARY, BINARY])
        ub_at_opt = upper_bound_eval(lam, jr.phi, rfs)
        assert ub_at_opt == pytest.approx(jr.value, rel=1e-6)


class TestSubsetUpperBound:
    def setup_method(self):
        self.dist = JointChannelDistribution.product_form([BINARY, BINARY])
        self.singles = SubsetSystem.from_lists([[0], [1]], 2)

    def test_singleton_reduction_to_user_bound(self):
        # per-subset laws tilted to mean-matching distributions reproduce
        # the per-user bound at those means
        phi_means = [0.55, 0.6]
        phis = []
        for i in (0, 1):
            t = tilt_to_mean(self.dist.user_marginal(i), phi_means[i])
            phis.append(list(t.probs))
        val, diag = subset_upper_bound([0.4, 0.4], self.dist, self.singles, phis)
        ref = upper_bound_eval([0.4, 0.4], phi_means, [BINARY, BINARY])
        assert val == pytest.approx(ref, rel=1e-3)
        assert not diag.get("lambda_max_dominated", False)

    def test_single_subset_forced_frequency(self):
        pair = SubsetSystem.from_lists([[0, 1]], 2)
        sub = self.dist.substate_marginal([0, 1])
        # suppress service: all mass on the all-zero sub-state's neighbors
        phi = [0.7, 0.1, 0.1, 0.1]
        from subsetsched import region_vertices, sanov_rate

        val, _ = subset_upper_bound([0.4, 0.4], self.dist, pair, [phi])
        cost = sanov_rate(sub, phi)
        region = region_vertices(sub, phi)
        den = max(
            0.4 - min(v[i] for v in region.vertices) for i in range(2)
        )
        assert val == pytest.approx(cost / den, rel=1e-9)

    def test_pair_plus_singleton_against_a_frequency_scan(self):
        # the verbatim denominator max_i (lambda_i - c_a(i) * min vertex
        # coordinate of user i), scanned densely over (c_0, 1 - c_0)
        from subsetsched import region_vertices, sanov_rate

        dist = JointChannelDistribution.product_form([BINARY, BINARY, {0: 0.3, 1: 0.3, 3: 0.4}])
        system = SubsetSystem.from_lists([[0, 1], [2]], 3)
        lam = np.array([0.3, 0.25, 0.35])
        phis = [[0.7, 0.1, 0.1, 0.1], [0.6, 0.3, 0.1]]
        val, diag = subset_upper_bound(lam, dist, system, phis)
        subs = [dist.substate_marginal(a) for a in system.subsets]
        costs = np.array([sanov_rate(sd, ph) for sd, ph in zip(subs, phis)])
        low = np.zeros(3)
        for sd, ph, alpha in zip(subs, phis, system.subsets):
            verts = region_vertices(sd, ph).vertices
            for pos, user in enumerate(alpha):
                low[user] = min(v[pos] for v in verts)
        owner = np.array([0, 0, 1])

        def formula(c):
            c = np.atleast_2d(c)
            return c @ costs / np.max(lam - c[:, owner] * low, axis=1)

        c0 = np.linspace(0.0, 1.0, 200_001)
        scan = formula(np.stack([c0, 1.0 - c0], axis=1))
        assert 0 < val < math.inf
        assert scan.max() <= val * (1 + 1e-12)
        assert scan.max() == pytest.approx(val, rel=1e-6)
        assert formula(np.array(diag["c"]))[0] == pytest.approx(val, rel=1e-12)
        assert not diag["lambda_max_dominated"]  # the singleton subset serves user 2

    def test_natural_law_stable_is_vacuous(self):
        naturals = [list(self.dist.substate_marginal(a).probs) for a in self.singles.subsets]
        val, diag = subset_upper_bound([0.4, 0.4], self.dist, self.singles, naturals)
        assert val == math.inf

    def test_non_disjoint_rejected(self):
        overlapping = SubsetSystem.from_lists([[0, 1], [1]], 2)
        with pytest.raises(ValueError, match="disjoint"):
            subset_upper_bound([0.1, 0.1], self.dist, overlapping, [[1.0] * 4, [1.0] * 2])

    def test_minimized_bound_positive_and_flagged(self):
        pair = SubsetSystem.from_lists([[0, 1]], 2)
        val, phis, diag = minimize_subset_upper_bound(
            [0.4, 0.4], self.dist, pair, multistarts=8, seed=3
        )
        assert 0 < val < math.inf
        # multi-user subsets admit zero-service vertices, pinning the
        # denominator at the raw arrival maximum
        assert diag.get("lambda_max_dominated", False)


def _random_channels(rng, num_users, joint):
    # few enough sub-states that a three-member region has few vertices
    if not joint:
        return JointChannelDistribution.product_form(
            [random_marginal(rng, max_pts=5 - num_users) for _ in range(num_users)])
    states = {tuple(int(r) for r in rng.integers(0, 4, size=num_users))
              for _ in range(int(rng.integers(2, 7)))}
    return JointChannelDistribution.from_table(sorted(states), rng.dirichlet(np.ones(len(states))))


def _random_laws(rng, laws):
    # Dirichlet laws, some with null sub-states (a member may get no service)
    out = []
    for sl in laws:
        phi = rng.dirichlet(np.ones(len(sl.law.probs)))
        if len(phi) > 1 and rng.random() < 0.3:
            phi[int(rng.integers(len(phi)))] = 0.0
            phi /= phi.sum()
        out.append(phi)
    return out


def _lp_gauge(lam, regions, num_users):
    """Test-local gauge: least total time share whose region points cover lam."""
    verts = np.vstack([r.embedded_vertices(num_users) for r in regions])
    res = linprog(np.ones(len(verts)), A_ub=-verts.T, b_ub=-lam,
                  bounds=[(0.0, None)] * len(verts), method="highs")
    return res.fun if res.status == 0 else math.inf


class TestVacuityScreen:
    """The gauge screen answers as the membership LP, or leaves it the question."""

    SYSTEMS = {
        "singletons": ([[0], [1]], 2),
        "pair": ([[0, 1]], 2),
        "pair_plus_singleton": ([[0, 1], [2]], 3),
        "triple": ([[0, 1, 2]], 3),
    }

    @pytest.mark.parametrize("joint", [False, True], ids=["product", "joint"])
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_screen_agrees_with_linprog(self, system, joint):
        lists, n = self.SYSTEMS[system]
        subsets = SubsetSystem.from_lists(lists, n)
        rng = np.random.Generator(np.random.PCG64([17, list(self.SYSTEMS).index(system), int(joint)]))
        decided = 0
        for _ in range(25):
            dist = _random_channels(rng, n, joint)
            laws = bounds._subset_laws(dist, subsets)
            phis = _random_laws(rng, laws)
            regions = [region_vertices(sl.law, ph) for sl, ph in zip(laws, phis)]
            lam = rng.uniform(0.05, 1.0, size=n)
            gauge = _lp_gauge(lam, regions, n)
            ones = _lp_gauge((lam > 0).astype(float), regions, n)
            cases = [(lam, None)]
            if math.isfinite(gauge):
                cases += [(lam * (1.0 + d) / gauge, d)
                          for d in (-1e-3, 1e-3, -1e-5, 1e-5, -2e-6, 2e-6, -5e-7, 5e-7)]
            for lam_c, d in cases:
                verdict = bounds._hull_screen(lam_c, laws, phis)
                if system == "triple" or (d is not None and abs(d) <= 1e-6):
                    assert verdict is None
                if d is not None and abs(d) >= 2e-6 and ones <= 9.0 and system != "triple":
                    assert verdict == (d > 0)  # the gauge is exact outside the band
                if verdict is not None:
                    decided += 1
                    assert verdict == bounds._region_lambda_out_of_hull(lam_c, regions, n)
        assert (decided == 0) == (system == "triple")

    def test_uncovered_arrivals_go_to_the_lp(self):
        dist = JointChannelDistribution.product_form([BINARY, BINARY, BINARY])
        subsets = SubsetSystem.from_lists([[0, 1]], 3)
        laws = bounds._subset_laws(dist, subsets)
        lam = np.array([0.1, 0.1, 0.2])
        assert bounds._hull_screen(lam, laws, [dist.substate_marginal([0, 1]).probs]) is None
        val, _ = subset_upper_bound(lam, dist, subsets, [[0.25] * 4])
        assert val < math.inf  # user 2 is never served

    @pytest.mark.parametrize("multistarts", [0, 8])
    @pytest.mark.parametrize("lists", [[[0, 1]], [[0], [1]]], ids=["pair", "singletons"])
    def test_search_equals_the_lp_only_search(self, monkeypatch, lists, multistarts):
        dist = JointChannelDistribution.product_form([BINARY, BINARY])
        subsets = SubsetSystem.from_lists(lists, 2)
        screened = minimize_subset_upper_bound([0.4, 0.4], dist, subsets,
                                               multistarts=multistarts, seed=0)
        # rerun with the screen undecided everywhere, so the LP answers every
        # evaluation; each verdict the screen would have given must be the LP's
        verdicts = []
        screen, out_of_hull = bounds._hull_screen, bounds._region_lambda_out_of_hull

        def undecided(lam, laws, phis):
            verdicts.append(screen(lam, laws, phis))
            return None

        def checked_lp(lam, regions, num_users):
            out = out_of_hull(lam, regions, num_users)
            assert verdicts[-1] in (None, out)
            return out

        monkeypatch.setattr(bounds, "_hull_screen", undecided)
        monkeypatch.setattr(bounds, "_region_lambda_out_of_hull", checked_lp)
        lp_only = minimize_subset_upper_bound([0.4, 0.4], dist, subsets,
                                              multistarts=multistarts, seed=0)
        assert screened == lp_only
        assert any(v is not None for v in verdicts)


class TestVerifyMatching:
    def test_reference_instance(self):
        dist = JointChannelDistribution.product_form([BINARY, BINARY])
        subsets = SubsetSystem.from_lists([[0], [1]], 2)
        rep = verify_matching([0.4, 0.4], dist, subsets, multistarts=16)
        assert rep.jstar > 0
        assert rep.gap < 1e-3
        assert rep.method == "singleton_matching"

    def test_unstable_rejected(self):
        dist = JointChannelDistribution.product_form([BINARY, BINARY])
        subsets = SubsetSystem.from_lists([[0], [1]], 2)
        with pytest.raises(UnstableArrivalsError):
            verify_matching([0.6, 0.6], dist, subsets)

    def test_general_subsets_report(self):
        dist = JointChannelDistribution.product_form([BINARY, BINARY])
        pair = SubsetSystem.from_lists([[0, 1]], 2)
        rep = verify_matching([0.4, 0.4], dist, pair, multistarts=16)
        assert rep.method == "subset_upper_bound"
        assert rep.jstar == rep.ub_min > 0

    def test_report_serializes(self):
        import json

        dist = JointChannelDistribution.product_form([BINARY, BINARY])
        subsets = SubsetSystem.from_lists([[0], [1]], 2)
        rep = verify_matching([0.4, 0.4], dist, subsets, multistarts=8)
        from subsetsched.cli import _json_safe

        json.dumps(_json_safe(rep.to_dict()))


class MemoRate(ScalarRateFunction):
    """L* memoized per twist: a product grid revisits every axis value."""

    def __init__(self, marginal):
        super().__init__(marginal)
        self._memo = {}

    def rate(self, x):
        if x not in self._memo:
            self._memo[x] = super().rate(x)
        return self._memo[x]


class TestMatchingCertificate:
    def test_battery_gap_at_the_dual_twist(self):
        singles = SubsetSystem.from_lists([[0], [1]], 2)
        for lam, t1, t2 in criterion_3_battery():
            dist = JointChannelDistribution.product_form([t1, t2])
            rep = verify_matching(lam, dist, singles, grid_res=0.05, multistarts=4)
            assert rep.gap <= 1e-9, (lam, rep.gap)
            twist = [ScalarRateFunction(dist.user_marginal(i)).mean for i in (0, 1)]
            for user, phi in zip(rep.diagnostics["jstar_subset"], rep.diagnostics["jstar_phi"]):
                twist[user] = phi
            assert rep.phi_hat == tuple(twist)

    def test_floored_twist_evaluated_at_the_edge(self):
        # user 1 starves at the optimum: the dual floors its twist at 1e-13,
        # and the bound must read it at rate 0, where the user is unserved
        lam = [1.568, 0.027, 0.796]
        margs = [{2: 0.45952685930944553, 3: 0.4899834054028035, 5: 0.05048973528775092},
                 {0: 0.18407152951071867, 5: 0.8159284704892814},
                 {3: 0.07339682915820432, 4: 0.9266031708417957}]
        rep = verify_matching(lam, JointChannelDistribution.product_form(margs),
                              SubsetSystem.from_lists([[0], [1], [2]], 3),
                              grid_res=0.05, multistarts=4)
        assert rep.jstar == pytest.approx(11.6396820425, rel=1e-10)
        assert rep.diagnostics["jstar_subset"] == (0, 1, 2)
        assert rep.diagnostics["jstar_phi"][1] <= 1e-13
        assert rep.phi_hat[1] == 0.0
        assert rep.gap <= 1e-9

    def test_no_grid_twist_beats_jstar(self):
        # independent of the dual: no twist on a 0.05 product grid over
        # [r_min, mean] takes the universal bound below J*
        for lam, t1, t2 in criterion_3_battery():
            rfs = [MemoRate(t1), MemoRate(t2)]
            jstar = jstar_singleton(lam, rfs).value
            axes = [np.arange(rf.r_min, rf.mean + 0.025, 0.05) for rf in rfs]
            best = min(upper_bound_eval(lam, [float(a), float(b)], rfs)
                       for a in axes[0] for b in axes[1])
            assert best >= jstar * (1 - 1e-9), (lam, best, jstar)


class TestOverflowTimeWindow:
    def test_hand_solved_window(self):
        from subsetsched import overflow_time_window

        # drains in the hull {mu >= 0: 2 mu_1 + 2 mu_2 <= 1}; the slowest
        # escape picks mu = (1/4, 1/4), drift 0.15
        t_min, t_max = overflow_time_window([0.4, 0.4], [0.5, 0.5])
        assert t_min == pytest.approx(1 / 0.4)
        assert t_max == pytest.approx(1 / 0.15)
        assert t_min <= t_max

    def test_inside_hull_never_forced(self):
        from subsetsched import overflow_time_window

        t_min, t_max = overflow_time_window([0.4, 0.4], [1.0, 1.0])
        assert t_min == pytest.approx(2.5)
        assert t_max == math.inf


    def test_matches_the_drain_lp(self):
        # min t s.t. lambda_i - mu_i <= t, sum_i mu_i / phi_i <= 1, mu >= 0,
        # mu_i = 0 where phi_i = 0: the slowest escape from the twisted hull
        from subsetsched import overflow_time_window

        rng = np.random.Generator(np.random.PCG64(61))
        for n in range(1, 6):
            for _ in range(30):
                lam, phi, _ = random_inner_sup_instance(rng, n)
                cost = np.concatenate([[1.0], np.zeros(n)])
                a_ub = np.block([[-np.ones((n, 1)), -np.eye(n)],
                                 [np.zeros((1, 1)), np.where(phi > 0, 1.0 / np.maximum(phi, 1e-300),
                                                             0.0)[None, :]]])
                b_ub = np.concatenate([-lam, [1.0]])
                bounds = [(None, None)] + [(0.0, None if p > 0 else 0.0) for p in phi]
                res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
                assert res.success and res.fun > 0
                t_min, t_max = overflow_time_window(lam, phi)
                assert t_min == pytest.approx(1 / lam.max())
                assert t_max == pytest.approx(1 / res.fun, rel=1e-9)


def test_jstar_convex_order_diagnostic(capsys):
    # diagnostic only (reported, not asserted): adding service capability
    # should not thin the overflow tail's lower bound on tested instances
    base = jstar_singleton([0.4, 0.4], [BINARY, BINARY])
    richer = {0: 0.5, 2: 0.3, 4: 0.2}
    enlarged = jstar_singleton([0.4, 0.4], [richer, BINARY])
    print(f"\nconvex-order diagnostic: base jstar {base.value:.6f}, "
          f"enlarged-channel jstar {enlarged.value:.6f} "
          f"({'non-decreasing' if enlarged.value >= base.value - 1e-9 else 'DECREASED'})")
    assert base.value > 0 and enlarged.value > 0
