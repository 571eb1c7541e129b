import functools
import itertools
import math

import numpy as np
import pytest

from subsetsched import (
    ArrivalSpec,
    JointChannelDistribution,
    OverflowEstimate,
    Simulator,
    SubsetSystem,
    SystemModel,
    direct_overflow_curve,
    estimate_overflow_importance,
    fit_exponent,
    verify_matching,
)

from subsetsched.policies import make_policy

from conftest import random_stable_two_user_instance


def one_user_model(lam="4/5"):
    return SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}]),
        subsets=SubsetSystem.from_lists([[0]], 1),
        arrivals=ArrivalSpec.from_values([lam]),
    )


def enumerate_hit_probability(model, horizon, level):
    """Exact P[max queue >= level within horizon] over all channel words.

    Each full-length word carries its full product weight; the early exit
    only freezes the hit flag (prefix weights would double-count words).
    """
    rates = sorted(model.dist.user_marginal(0))
    probs = model.dist.user_marginal(0)
    total = 0.0
    for seq in itertools.product(rates, repeat=horizon):
        weight = 1.0
        for r in seq:
            weight *= probs[r]
        q = 0
        for k, r in enumerate(seq):
            a = model.arrivals.increments(k)[0]
            q = max(q + a - r, 0)
            if q >= level:
                total += weight
                break
    return total


def two_user_model():
    return SystemModel(
        dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.4, 3: 0.6}]),
        subsets=SubsetSystem.from_lists([[0], [1]], 2),
        arrivals=ArrivalSpec.from_values(["3/5", "1/2"]),
    )


def enumerate_two_user_hit_probability(model, policy_name, horizon, level):
    """Exact P[max queue >= level within horizon] over all 4**horizon slot words.

    A slot's symbol is both users' rates; under uniform_random it is the
    subset coin and the chosen user's rate.  Depth-first over prefixes: a
    prefix that hits carries the weight of all its continuations.
    """
    tables = [model.dist.user_marginal(u) for u in range(2)]
    policy = make_policy(policy_name, model, np.random.default_rng(0))

    def symbols(q, k):
        if policy_name == "uniform_random":
            return [(a, r, 0.5 * p) for a in range(2) for r, p in tables[a].items()]
        a = policy.choose_subset(q, k)
        return [(a, (r0, r1)[a], p0 * p1)
                for r0, p0 in tables[0].items() for r1, p1 in tables[1].items()]

    def walk(q, k):
        if k == horizon:
            return 0.0
        arr = model.arrivals.increments(k)
        total = 0.0
        for a, r, p in symbols(q, k):
            nxt = [q[0] + arr[0], q[1] + arr[1]]
            nxt[a] = max(nxt[a] - r, 0)
            total += p * (1.0 if max(nxt) >= level else walk(nxt, k + 1))
        return total

    return walk([0, 0], 0)


class TestDirect:
    def test_level_zero_probability_one(self, reference_model):
        (est,), _ = direct_overflow_curve(
            reference_model, "max_queue", [0], replicas=2, horizon=2000, seed=1
        )
        assert est.p_hat == 1.0

    def test_unstable_grows(self):
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values(["3/5", "3/5"]),
        )
        (est,), _ = direct_overflow_curve(
            model, "max_queue", [50], replicas=2, horizon=20_000, seed=2
        )
        assert "instance_unstable" in est.flags
        assert est.p_hat > 0.9

    def test_monotone_in_level(self, reference_model):
        ests, _ = direct_overflow_curve(
            reference_model, "max_queue", [2, 4, 6], replicas=4, horizon=50_000,
            seed=3, sample_stride=1,
        )
        ps = [e.p_hat for e in ests]
        assert ps[0] > ps[1] > ps[2] > 0

    def test_zero_events_flagged(self, reference_model):
        (est,), _ = direct_overflow_curve(
            reference_model, "max_queue", [500], replicas=2, horizon=5000, seed=4
        )
        assert est.p_hat == 0.0
        assert "level_too_deep_for_direct_mc" in est.flags
        assert est.ci_hi > 0  # one-sided interval stays informative

    def test_worker_count_invariance(self, reference_model):
        kw = dict(levels=[3, 5], replicas=4, horizon=10_000, seed=5, sample_stride=7)
        a, _ = direct_overflow_curve(reference_model, "max_queue", workers=1, **kw)
        b, _ = direct_overflow_curve(reference_model, "max_queue", workers=2, **kw)
        assert [(e.level, e.p_hat, e.events) for e in a] == [
            (e.level, e.p_hat, e.events) for e in b
        ]


class TestImportance:
    def test_unbiased_vs_enumeration(self):
        model = one_user_model()
        horizon, level = 8, 3
        exact = enumerate_hit_probability(model, horizon, level)
        est = estimate_overflow_importance(
            model, "max_queue", level, phi=[0.4], replicas=40_000, seed=6, horizon=horizon
        )
        se = (est.ci_hi - est.ci_lo) / (2 * 1.96)
        assert abs(est.p_hat - exact) < 3 * se

    @pytest.mark.parametrize("policy", ["round_robin", "uniform_random", "max_exp"])
    def test_unbiased_vs_enumeration_under_each_policy(self, policy):
        model = two_user_model()
        horizon, level = 8, 3
        exact = enumerate_two_user_hit_probability(model, policy, horizon, level)
        est = estimate_overflow_importance(
            model, policy, level, phi=[0.7, 1.2], replicas=40_000, seed=6, horizon=horizon
        )
        se = (est.ci_hi - est.ci_lo) / (2 * 1.96)
        assert 0.0 < exact < 1.0
        assert abs(est.p_hat - exact) < 3 * se

    def test_enumeration_oracle_matches_the_one_user_oracle(self):
        # a second user that never queues leaves max_queue's first user alone
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values(["4/5", "0"]),
        )
        assert enumerate_two_user_hit_probability(model, "max_queue", 8, 3) == pytest.approx(
            enumerate_hit_probability(one_user_model(), 8, 3), abs=1e-15
        )

    def test_empty_runs_rejected(self):
        model = one_user_model()
        with pytest.raises(ValueError, match="replicas"):
            estimate_overflow_importance(model, "max_queue", 3, phi=[0.4], replicas=0, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            estimate_overflow_importance(
                model, "max_queue", 3, phi=[0.4], replicas=10, seed=1, horizon=-3
            )

    def test_natural_tilt_gives_unit_weights(self):
        model = one_user_model()
        # phi at the channel mean: zero tilt, every hit weight is exactly 1
        est = estimate_overflow_importance(
            model, "max_queue", 2, phi=[1.0], replicas=3000, seed=7, horizon=12
        )
        assert est.ess == pytest.approx(est.events)
        hit_rate = est.events / est.samples
        assert est.p_hat == pytest.approx(hit_rate)

    def test_requires_singletons(self):
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            subsets=SubsetSystem.from_lists([[0, 1]], 2),
            arrivals=ArrivalSpec.from_values(["2/5", "2/5"]),
        )
        with pytest.raises(ValueError, match="singleton"):
            estimate_overflow_importance(model, "max_exp", 5, phi=[0.5, 0.5], replicas=10, seed=8)

    def test_exponent_agrees_with_direct_on_shallow_levels(self, reference_model):
        # the stationary fraction and the per-attempt hitting probability
        # are different quantities (constant offset) with the same decay
        # exponent: compare fitted slopes, not levels
        levels = [4, 6, 8, 10]
        direct, _ = direct_overflow_curve(
            reference_model, "max_queue", levels, replicas=16, horizon=250_000,
            seed=9, sample_stride=1, workers=2,
        )
        importance = [
            estimate_overflow_importance(
                reference_model, "max_queue", lvl, phi=[0.6107, 0.6107],
                replicas=30_000, seed=10, workers=2,
            )
            for lvl in levels
        ]
        fit_d = fit_exponent(direct)
        fit_i = fit_exponent(importance)
        tol = 4 * (fit_d.stderr + fit_i.stderr) + 0.08
        assert abs(fit_d.exponent - fit_i.exponent) < tol

    def test_variance_reduction_at_depth(self, reference_model):
        level = 12
        n = 8000
        tilted = estimate_overflow_importance(
            reference_model, "max_queue", level, phi=[0.6107, 0.6107],
            replicas=n, seed=11,
        )
        natural = estimate_overflow_importance(
            reference_model, "max_queue", level, phi=[1.0, 1.0], replicas=n, seed=11
        )
        width_t = (tilted.ci_hi - tilted.ci_lo) / max(tilted.p_hat, 1e-300)
        width_n = (natural.ci_hi - natural.ci_lo) / max(natural.p_hat, 1e-300)
        assert tilted.p_hat > 0
        # the zero-tilt run sees (next to) no hits this deep
        assert natural.events < 5 or width_t < width_n

    def test_deep_level_weights_do_not_underflow(self):
        # criterion 3's battery instance 1 (J* = 4.36): at level 100 every hit
        # weight is below the smallest positive double
        rng = np.random.Generator(np.random.PCG64(303))
        for _ in range(2):
            lam, t1, t2 = random_stable_two_user_instance(rng)
        model = SystemModel(
            dist=JointChannelDistribution.product_form([t1, t2]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values(lam),
        )
        rep = verify_matching(lam, model.dist, model.subsets, grid_res=0.05, multistarts=4)
        est = estimate_overflow_importance(
            model, "max_queue", 100, phi=rep.phi_hat, replicas=200, seed=5
        )
        assert est.events > 0
        assert 0.0 < est.p_hat < 1e-150 and math.isfinite(est.p_hat)
        assert est.ess > 0.0
        assert est.ci_lo <= est.p_hat <= est.ci_hi

    def test_attempts_cut_at_max_slots_are_counted(self, reference_model, monkeypatch):
        kw = dict(phi=[0.6107, 0.6107], replicas=10, seed=3)
        full = estimate_overflow_importance(reference_model, "max_queue", 5, **kw)
        assert full.truncated == 0 and "truncated_attempts" not in full.flags
        assert full.slots >= 10 * 3
        # two slots end no attempt on this model (first arrival at slot 2)
        monkeypatch.setattr(
            Simulator, "run_hitting", functools.partialmethod(Simulator.run_hitting, max_slots=2)
        )
        cut = estimate_overflow_importance(reference_model, "max_queue", 5, **kw)
        assert cut.truncated == 10 and "truncated_attempts" in cut.flags
        assert cut.slots == 20 and cut.events == 0

    def test_worker_count_invariance(self, reference_model):
        kw = dict(phi=[0.6107, 0.6107], replicas=4000, seed=12)
        a = estimate_overflow_importance(reference_model, "max_queue", 8, workers=1, **kw)
        b = estimate_overflow_importance(reference_model, "max_queue", 8, workers=2, **kw)
        assert a.p_hat == b.p_hat and a.ess == b.ess


def test_exponent_nonincreasing_in_load():
    # heavier arrivals cannot thin the overflow tail: fitted exponents
    # decrease as lambda grows componentwise (CI-aware ordering)
    from subsetsched import upper_bound_min

    fits = []
    for lam in ("7/20", "2/5", "9/20"):
        model = SystemModel(
            dist=JointChannelDistribution.product_form([{0: 0.5, 2: 0.5}, {0: 0.5, 2: 0.5}]),
            subsets=SubsetSystem.from_lists([[0], [1]], 2),
            arrivals=ArrivalSpec.from_values([lam, lam]),
        )
        lam_f = model.arrivals.floats()
        _, phi_hat, _ = upper_bound_min(lam_f, [{0: 0.5, 2: 0.5}] * 2)
        ests = [
            estimate_overflow_importance(
                model, "max_queue", lvl, phi=phi_hat, replicas=8000, seed=21, workers=2
            )
            for lvl in (8, 12, 16)
        ]
        fits.append(fit_exponent(ests))
    for lighter, heavier in zip(fits, fits[1:]):
        slack = 3 * (lighter.stderr + heavier.stderr)
        assert heavier.exponent <= lighter.exponent + slack


def synthetic_estimate(level, p, rel_ci=0.0, method="direct", events=1000.0):
    lo = p * math.exp(-rel_ci)
    hi = p * math.exp(rel_ci)
    return OverflowEstimate(
        level=level, p_hat=p, ci_lo=lo, ci_hi=hi, replicas=1,
        method=method, events=events, samples=10**6, ess=events,
    )


class TestFitExponent:
    def test_exact_exponential(self):
        ests = [synthetic_estimate(n, math.exp(-0.5 * n)) for n in (5, 10, 15, 20)]
        fit = fit_exponent(ests)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.stderr == 0.0

    def test_noisy_recovers_slope(self):
        rng = np.random.Generator(np.random.PCG64(13))
        levels = [5, 10, 15, 20, 25]
        ests = [
            synthetic_estimate(
                n, math.exp(-0.5 * n) * float(rng.lognormal(0.0, 0.05)), rel_ci=0.1
            )
            for n in levels
        ]
        fit = fit_exponent(ests)
        assert abs(fit.exponent - 0.5) < 3 * max(fit.stderr, 0.05 / 5)

    def test_too_few_levels(self):
        ests = [synthetic_estimate(n, math.exp(-n)) for n in (5, 10)]
        with pytest.raises(ValueError, match="3 usable"):
            fit_exponent(ests)

    def test_clipped_importance_interval_keeps_its_weight_small(self):
        # three tight levels on exponent 1/2, plus an importance level 3x off
        # whose normal CI is clipped at 0: that level is the noisiest, so it
        # must barely move the fit
        def importance(level, p, half):
            return OverflowEstimate(
                level=level, p_hat=p, ci_lo=max(0.0, p - half), ci_hi=p + half,
                replicas=1000, method="importance", events=500.0, samples=1000, ess=500.0,
            )

        ests = [importance(n, math.exp(-0.5 * n), 0.01 * math.exp(-0.5 * n)) for n in (5, 10, 15)]
        p20 = 3 * math.exp(-10.0)
        ests.append(importance(20, p20, 1.5 * p20))
        fit = fit_exponent(ests)
        assert fit.exponent == pytest.approx(0.5, abs=1e-3)
        assert fit.levels == (5, 10, 15, 20)

    def test_untrusted_levels_excluded(self):
        ests = [synthetic_estimate(n, math.exp(-0.5 * n)) for n in (5, 10, 15)]
        ests.append(synthetic_estimate(20, math.exp(-0.5 * 20) * 100, events=3))
        fit = fit_exponent(ests)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert (20, "events<50") in fit.excluded
