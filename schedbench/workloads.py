"""The three workloads: their inputs, the program calls of one round, and the checks.

Every input is fixed except the Monte Carlo streams, which come from the
benchmark's ``--seed``.  A round is a list of operations; the runner times
each operation's program calls and checks the outputs afterwards, off the
clock.  Each check is a named claim; a claim that fails with the shape of a known
fault of the program (``checks.f1_shape``, ``checks.f2_shape``) carries
that fault's tag (F1, F2) and is counted as a failed operation without
making the run incorrect.  Any other failure is untagged.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import oracles

from subsetsched import bounds, cli, config, estimate, policies, simulate

OUT_DIR = Path(__file__).resolve().parent / "out"

REF_TABLE = {0: 0.5, 2: 0.5}
REF_CHANNELS = {"kind": "product", "per_user": [REF_TABLE, REF_TABLE]}
REF_RATES = ["2/5", "2/5"]

# Known faults, kept in the workloads and counted until the program mends them.
F1_INSTANCES = (4, 6, 9)  # standalone jstar_singleton overshoots at the r_min edge
F1 = "F1"
F2 = "F2"  # multi-user subset bound pinned at lambda_max, far below simulation

Claim = tuple[str, checks.Result, "str | None"]


@dataclass
class Op:
    """One operation of a round.

    ``call`` makes the program calls and nothing else; it is timed.
    ``check`` turns its result into claims (``ctx`` holds the results of
    the round's earlier operations); ``fingerprint`` is what must repeat
    exactly in later rounds.  Neither is timed.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], list[Claim]]
    fingerprint: Callable[[Any], object] = repr


@dataclass
class Workload:
    name: str
    prepare: Callable[[int], dict]  # seed -> loaded configs and models (set-up)
    ops: Callable[[dict, int], list[Op]]  # (prepared, seed) -> one round
    # prepared -> max_exp subset choices per second, on workloads that run max_exp
    choose_subset_rate: Callable[[dict], float] | None = None


def _tables(cfg) -> list[dict[float, float]]:
    return [{float(r): float(p) for r, p in t.items()} for t in cfg.channels["per_user"]]


def _lams(cfg) -> list[float]:
    return [float(v) for v in cfg.model.arrivals.floats()]


def _load(raw: dict):
    cfg = config.load_config(raw)
    cfg.model = cfg.build_model()
    return cfg


# ---------------------------------------------------------------------------
# reference-exponent: `subsetsched exponent` on the README config, cut down


IS_LEVEL, IS_HORIZON, IS_PHI, IS_RATE = 4, 10, 0.4, "4/5"


def _prepare_reference(seed: int) -> dict:
    out_dir = OUT_DIR / "reference-exponent"
    exponent = _load({
        "num_users": 2,
        "arrival_rates": REF_RATES,
        "channels": REF_CHANNELS,
        "subsets": [[0], [1]],
        "policy": {"name": "max_queue"},
        "horizon": 200_000,
        "levels": [10, 15, 20, 25],
        "replicas": 2,
        "seed": seed,
        "burn_in_frac": 0.2,
        "sample_stride": None,
        "workers": 1,
        "bounds": {"grid_resolution": 0.01, "multistarts": 64},
        "estimation": {"method": "auto", "phi": None, "cycles": 2500, "is_horizon": None},
        "output_dir": str(out_dir),
    })
    one_user = _load({
        "num_users": 1,
        "arrival_rates": [IS_RATE],
        "channels": {"kind": "product", "per_user": [REF_TABLE]},
        "subsets": [[0]],
        "policy": {"name": "max_queue"},
        "seed": seed,
        "workers": 1,
        "estimation": {"method": "importance", "phi": [IS_PHI], "cycles": 10_000,
                       "is_horizon": IS_HORIZON},
    })
    return {"exponent": exponent, "one_user": one_user, "out": out_dir}


def _reference_ops(prep: dict, seed: int) -> list[Op]:
    cfg, one = prep["exponent"], prep["one_user"]
    out: Path = prep["out"]
    jstar_ref = oracles.jstar(_lams(cfg), _tables(cfg))
    epochs = oracles.sampled_epochs(cfg.horizon, cfg.burn_in_frac, cfg.sample_stride)
    exact = oracles.hitting_probability(REF_TABLE, IS_RATE, IS_LEVEL, IS_HORIZON)

    def run_exponent():
        return cli.cmd_exponent(cfg, out, cfg.workers)

    def files(_rc) -> tuple[bytes, bytes]:
        return ((out / "exponent_fit.json").read_bytes(),
                (out / "overflow_estimates.csv").read_bytes())

    def check_exponent(rc, ctx) -> list[Claim]:
        claims: list[Claim] = [("exponent.exit_code", (rc == 0, f"exit code {rc}"), None)]
        fit_doc = json.loads((out / "exponent_fit.json").read_text())
        lines = (out / "overflow_estimates.csv").read_text().splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        jstar = float(fit_doc["bounds"]["jstar"])
        fitted = float(fit_doc["fit"]["exponent"])
        importance = [r for r in rows if r["method"] == "importance"]
        direct = {int(r["level"]): int(r["samples"]) for r in rows if r["method"] == "direct"}
        claims += [
            ("exponent.jstar_vs_oracle", checks.rel_close(jstar, jstar_ref), None),
            ("exponent.fit_within_band", checks.within_band(fitted, jstar), None),
            ("exponent.is_p_hat_decreasing", checks.strictly_decreasing(
                [int(r["level"]) for r in importance], [float(r["p_hat"]) for r in importance]),
             None),
            ("exponent.direct_samples", checks.equal_counts(
                direct, {lv: cfg.replicas * epochs for lv in cfg.levels}), None),
        ]
        return claims

    def run_enumeration():
        return estimate.estimate_overflow_importance(
            one.model, one.policy, IS_LEVEL, [IS_PHI],
            replicas=int(one.estimation["cycles"]), seed=one.seed,
            horizon=int(one.estimation["is_horizon"]), workers=1,
        )

    def check_enumeration(est, ctx) -> list[Claim]:
        return [("is_1user.unbiased_vs_enumeration",
                 checks.unbiased(est.p_hat, est.ci_lo, est.ci_hi, exact), None)]

    return [
        Op("exponent", run_exponent, check_exponent, files),
        Op("is_1user", run_enumeration, check_enumeration),
    ]


# ---------------------------------------------------------------------------
# singleton-battery: acceptance criterion 3's battery


def _random_marginal(rng: np.random.Generator) -> dict[int, float]:
    k = int(rng.integers(2, 5))
    values = sorted(rng.choice(np.arange(0, 6), size=k, replace=False).tolist())
    probs = rng.dirichlet(np.ones(k))
    return {int(v): float(p) for v, p in zip(values, probs)}


def _random_stable_instance(rng: np.random.Generator):
    """The acceptance suite's stable 2-user instance generator, draw for draw."""
    while True:
        t1 = _random_marginal(rng)
        t2 = _random_marginal(rng)
        t1[0] = t1.get(0, 0.0) + 0.05
        t2[0] = t2.get(0, 0.0) + 0.05
        z1, z2 = sum(t1.values()), sum(t2.values())
        t1 = {r: p / z1 for r, p in t1.items()}
        t2 = {r: p / z2 for r, p in t2.items()}
        mu1 = sum(r * p for r, p in t1.items())
        mu2 = sum(r * p for r, p in t2.items())
        if mu1 < 0.05 or mu2 < 0.05:
            continue
        rho = rng.uniform(0.3, 0.8)
        w = rng.uniform(0.25, 0.75)
        lam = [round(rho * w * mu1, 2), round(rho * (1 - w) * mu2, 2)]
        if min(lam) <= 0.01:
            continue
        if lam[0] / mu1 + lam[1] / mu2 >= 0.95:
            continue
        return lam, t1, t2


def battery() -> list[tuple[str, list[float], dict, dict, int]]:
    """(name, arrivals, table 1, table 2, bounds seed): reference plus seed 303's ten."""
    out = [("ref", [0.4, 0.4], dict(REF_TABLE), dict(REF_TABLE), 0)]
    rng = np.random.Generator(np.random.PCG64(303))
    for trial in range(10):
        lam, t1, t2 = _random_stable_instance(rng)
        out.append((str(trial), lam, t1, t2, trial))
    return out


BATTERY_BOUNDS = {"grid_resolution": 0.05, "multistarts": 4}
SHALLOW_LEVELS = [2, 4, 6, 8]


def _prepare_battery(seed: int) -> dict:
    instances = {}
    for name, lam, t1, t2, bseed in battery():
        instances[name] = _load({
            "num_users": 2,
            "arrival_rates": lam,
            "channels": {"kind": "product", "per_user": [t1, t2]},
            "subsets": [[0], [1]],
            "seed": bseed,
            "workers": 1,
            "bounds": BATTERY_BOUNDS,
        })
    # the light policy comparison draws its streams from the benchmark seed
    compare = _load({
        "num_users": 2,
        "arrival_rates": REF_RATES,
        "channels": REF_CHANNELS,
        "subsets": [[0], [1]],
        "horizon": 100_000,
        "levels": SHALLOW_LEVELS,
        "replicas": 1,
        "seed": seed,
        "sample_stride": 1,
        "workers": 1,
    })
    return {"instances": instances, "compare": compare}


def _battery_ops(prep: dict, seed: int) -> list[Op]:
    ops: list[Op] = []
    for name, cfg in prep["instances"].items():
        lams, tables = _lams(cfg), _tables(cfg)
        ref = oracles.jstar(lams, tables)
        search = dict(grid_res=float(cfg.bounds["grid_resolution"]),
                      multistarts=int(cfg.bounds["multistarts"]), seed=cfg.seed)
        known_f1 = name in {str(i) for i in F1_INSTANCES}

        def run_vm(cfg=cfg, search=search):
            m = cfg.model
            return bounds.verify_matching(m.arrivals.floats(), m.dist, m.subsets, **search)

        def check_vm(rep, ctx, name=name, ref=ref, lams=lams, tables=tables) -> list[Claim]:
            users = rep.diagnostics["jstar_subset"]
            attained = oracles.cost_per_drift(lams, tables, users, rep.diagnostics["jstar_phi"])
            return [
                (f"verify_matching[{name}].jstar_vs_oracle",
                 checks.rel_close(rep.jstar, ref), None),
                (f"verify_matching[{name}].gap", checks.below(rep.gap, checks.GAP_TOL), None),
                (f"verify_matching[{name}].twist_attains_jstar",
                 checks.rel_close(attained, rep.jstar), None),
            ]

        def run_standalone(cfg=cfg, search=search):
            m = cfg.model
            margs = [m.dist.user_marginal(i) for i in range(m.num_users)]
            return bounds.jstar_singleton(m.arrivals.floats(), margs, **search)

        def check_standalone(res, ctx, name=name, ref=ref, known_f1=known_f1) -> list[Claim]:
            fault = F1 if known_f1 and checks.f1_shape(res.value, ref) else None
            return [(f"jstar_singleton[{name}].vs_oracle",
                     checks.rel_close(res.value, ref), fault)]

        ops.append(Op(f"verify_matching[{name}]", run_vm, check_vm,
                      lambda r: (r.jstar, r.ub_min, r.gap, r.phi_hat)))
        ops.append(Op(f"jstar_singleton[{name}]", run_standalone, check_standalone,
                      lambda r: (r.value, r.phi)))

    cmp_cfg = prep["compare"]
    epochs = oracles.sampled_epochs(cmp_cfg.horizon, cmp_cfg.burn_in_frac, cmp_cfg.sample_stride)

    def run_compare():
        return {
            policy: estimate.direct_overflow_curve(
                cmp_cfg.model, policy, cmp_cfg.levels, replicas=cmp_cfg.replicas,
                horizon=cmp_cfg.horizon, seed=cmp_cfg.seed, sample_stride=cmp_cfg.sample_stride,
                burn_in_frac=cmp_cfg.burn_in_frac, workers=1,
            )[0]
            for policy in ("max_queue", "uniform_random")
        }

    def check_compare(res, ctx) -> list[Claim]:
        p = {pol: {e.level: e.p_hat for e in ests} for pol, ests in res.items()}
        samples = {f"{pol}@{e.level}": e.samples for pol, ests in res.items() for e in ests}
        return [
            ("max_queue_vs_uniform.dominates",
             checks.dominated(p["max_queue"], p["uniform_random"]), None),
            ("max_queue_vs_uniform.samples", checks.equal_counts(
                samples, {k: cmp_cfg.replicas * epochs for k in samples}), None),
        ]

    ops.append(Op("max_queue_vs_uniform", run_compare, check_compare,
                  lambda r: {k: [(e.level, e.p_hat, e.samples) for e in v] for k, v in r.items()}))
    return ops


# ---------------------------------------------------------------------------
# subset-maxexp: general disjoint subsets


PAIR_LEVELS = [1, 2, 3, 4, 5]
MANY_USERS = 16
MANY_RATE = "1/25"
MANY_LEVELS = [2, 3, 4, 6]


def _prepare_subset(seed: int) -> dict:
    pair = _load({
        "num_users": 2,
        "arrival_rates": REF_RATES,
        "channels": REF_CHANNELS,
        "subsets": [[0, 1]],
        "policy": {"name": "max_exp"},
        "horizon": 200_000,
        "levels": PAIR_LEVELS,
        "replicas": 1,
        "seed": seed,
        "sample_stride": 1,
        "workers": 1,
        "bounds": {"multistarts": 0},
    })
    singles = _load({
        "num_users": 2,
        "arrival_rates": REF_RATES,
        "channels": REF_CHANNELS,
        "subsets": [[0], [1]],
        "workers": 1,
        "bounds": {"multistarts": 0},
    })
    many = _load({
        "num_users": MANY_USERS,
        "arrival_rates": [MANY_RATE] * MANY_USERS,
        "channels": {"kind": "product", "per_user": [REF_TABLE] * MANY_USERS},
        "subsets": [[2 * i, 2 * i + 1] for i in range(MANY_USERS // 2)],
        "policy": {"name": "max_exp"},
        "horizon": 50_000,
        "levels": MANY_LEVELS,
        "seed": seed,
        "sample_stride": 1,
        "workers": 1,
    })
    return {"pair": pair, "singles": singles, "many": many}


def _subset_ops(prep: dict, seed: int) -> list[Op]:
    pair, singles, many = prep["pair"], prep["singles"], prep["many"]
    jstar_ref = oracles.jstar(_lams(singles), _tables(singles))
    ceiling = oracles.no_service_exponent(_lams(pair), _tables(pair), pair.subsets[0])

    def bound_op(name: str, cfg, extra_claims):
        def run():
            m = cfg.model
            return bounds.minimize_subset_upper_bound(
                m.arrivals.floats(), m.dist, m.subsets,
                multistarts=int(cfg.bounds["multistarts"]), seed=0)

        def check(res, ctx) -> list[Claim]:
            value, laws, _ = res
            recomputed = oracles.subset_bound(_lams(cfg), _tables(cfg), cfg.subsets, laws)
            return [(f"subset_bound[{name}].recomputed", checks.rel_close(value, recomputed), None)
                    ] + extra_claims(value)

        return Op(f"subset_bound[{name}]", run, check, lambda r: (r[0], r[1]))

    def run_pair_direct():
        m = pair.model
        ests, _ = estimate.direct_overflow_curve(
            m, pair.policy, pair.levels, replicas=pair.replicas, horizon=pair.horizon,
            seed=pair.seed, sample_stride=pair.sample_stride, burn_in_frac=pair.burn_in_frac,
            workers=1,
        )
        return ests, estimate.fit_exponent(ests)

    def check_pair_direct(res, ctx) -> list[Claim]:
        _, fit = res
        predicted, _, diag = ctx["subset_bound[pair]"]
        f2 = checks.f2_shape(fit.exponent, predicted, diag.get("lambda_max_dominated"), ceiling)
        return [("pair_max_exp.bound_vs_simulation",
                 checks.within_band(fit.exponent, predicted), F2 if f2 else None)]

    def run_many():
        m = many.model
        sim = simulate.Simulator(m)
        out = {}
        for k, name in enumerate(("max_exp", "round_robin")):
            policy = policies.make_policy(name, m, simulate.rng_from_seed(many.seed, 2, k))
            out[name] = sim.run(policy, many.horizon, simulate.rng_from_seed(many.seed, 1, k),
                                levels=many.levels, sample_stride=many.sample_stride,
                                burn_in_frac=many.burn_in_frac)
        return out

    expected = [oracles.cumulative_arrivals(r, many.horizon) for r in many.arrival_rates]

    def check_many(res, ctx) -> list[Claim]:
        frac = {name: {lv: c / r.samples for lv, c in r.exceed_counts.items()}
                for name, r in res.items()}
        claims: list[Claim] = [("pairs16.max_exp_dominates_round_robin",
                                checks.dominated(frac["max_exp"], frac["round_robin"]), None)]
        for name, r in res.items():
            claims.append((f"pairs16.{name}.packets_conserved",
                           checks.conserved(r.state.f, r.state.fhat, r.state.q, expected), None))
        return claims

    return [
        bound_op("pair", pair, lambda value: []),
        bound_op("singletons", singles, lambda value: [
            ("subset_bound[singletons].vs_oracle_jstar", checks.rel_close(value, jstar_ref),
             None)]),
        Op("pair_max_exp", run_pair_direct, check_pair_direct,
           lambda r: ([(e.level, e.p_hat) for e in r[0]], r[1].exponent)),
        Op("pairs16", run_many, check_many,
           lambda r: {k: (v.exceed_counts, v.samples, list(v.state.q)) for k, v in r.items()}),
    ]


def _subset_choice_rate(prep: dict) -> float:
    """max_exp subset choices per second on the queues of the 16-user run.

    Per-slot policy calls are too cheap to wrap inside a run, so the
    traced run repeats the round's 16-user ``max_exp`` run untimed,
    records the queue vector before every slot, and times
    ``choose_subset`` on those vectors alone.
    """
    many = prep["many"]
    m = many.model
    policy = policies.make_policy("max_exp", m, simulate.rng_from_seed(many.seed, 2, 0))
    run = simulate.Simulator(m).run(policy, many.horizon, simulate.rng_from_seed(many.seed, 1, 0),
                                    sample_stride=many.sample_stride,
                                    burn_in_frac=many.burn_in_frac, record_path=True)
    queues = run.path[:-1].tolist()
    t0 = time.perf_counter()
    for k, q in enumerate(queues):
        policy.choose_subset(q, k)
    return len(queues) / (time.perf_counter() - t0)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "reference-exponent": Workload("reference-exponent", _prepare_reference, _reference_ops),
    "singleton-battery": Workload("singleton-battery", _prepare_battery, _battery_ops),
    "subset-maxexp": Workload("subset-maxexp", _prepare_subset, _subset_ops, _subset_choice_rate),
}
