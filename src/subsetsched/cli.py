"""Command-line front end: simulate | bounds | exponent | selftest.

Script-safe: diagnostics go to stderr, data to files.  Summary files are
byte-identical across reruns of the same config (they embed the config
hash, package version, seed and grid resolutions); wall-clock timing goes
to a ``*.meta.json`` sidecar so it cannot break determinism.  Exit codes:
0 success, 1 runtime error, 2 config validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import UnstableArrivalsError, verify_matching
from .config import ConfigError, ExperimentConfig, load_config
from .estimate import (
    direct_overflow_curve,
    estimate_overflow_importance,
    fit_exponent,
)
from .policies import make_policy
from .simulate import Simulator, rng_from_seed


def _meta(cfg: ExperimentConfig, **extra) -> dict:
    return {
        "config_hash": cfg.config_hash,
        "package_version": __version__,
        "seed": cfg.seed,
        **extra,
    }


def _emit_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_meta_sidecar(path: Path, cfg: ExperimentConfig, wall_clock: float) -> None:
    _emit_json(
        path.with_suffix(path.suffix + ".meta.json"),
        {"config_hash": cfg.config_hash, "wall_clock_s": wall_clock},
    )


def _out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    env = os.environ.get("SUBSETSCHED_OUTPUT_DIR")
    return Path(override or env or cfg.output_dir)


def _csv_meta_line(cfg: ExperimentConfig) -> str:
    return (f"# config_hash={cfg.config_hash} package_version={__version__} "
            f"seed={cfg.seed}\n")


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.monotonic()
    model = cfg.build_model()
    sim = Simulator(model)
    policy = make_policy(cfg.policy, model, rng_from_seed(cfg.seed, 2, 0))
    res = sim.run(
        policy,
        cfg.horizon,
        rng_from_seed(cfg.seed, 1, 0),
        levels=cfg.levels,
        sample_stride=cfg.sample_stride,
        burn_in_frac=cfg.burn_in_frac,
        record_trace=cfg.record_trace,
        record_path=cfg.record_trace,
    )
    summary = {
        "meta": _meta(cfg, horizon=cfg.horizon),
        "peak": res.peak,
        "first_hit": {str(k): v for k, v in res.first_hit.items()},
        "exceed_counts": {str(k): v for k, v in res.exceed_counts.items()},
        "samples": res.samples,
        "sample_stride": res.sample_stride,
        "burn_in_slots": res.burn_in_slots,
        "final_queues": list(res.state.q),
        "subset_choice_counts": list(res.state.c),
        "total_served": sum(res.state.fhat),
        "total_arrived": sum(res.state.f),
    }
    path = out / "run_summary.json"
    _emit_json(path, summary)
    if cfg.record_trace and res.trace is not None and res.path is not None:
        trace_path = out / "trace.csv"
        with trace_path.open("w", newline="") as fh:
            fh.write(_csv_meta_line(cfg))
            writer = csv.writer(fh)
            writer.writerow(
                ["k", "subset", "substate", "user"] + [f"q{i}" for i in range(model.num_users)]
            )
            for (k, a, rid, user) in res.trace.rows:
                writer.writerow([k, a, rid, user] + [int(v) for v in res.path[k + 1]])
        print(f"wrote {trace_path}", file=sys.stderr)
    _emit_meta_sidecar(path, cfg, time.monotonic() - t0)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_bounds(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.monotonic()
    model = cfg.build_model()
    report = verify_matching(
        model.arrivals.floats(),
        model.dist,
        model.subsets,
        multistarts=int(cfg.bounds["multistarts"]),
        seed=cfg.seed,
    )
    payload = {"meta": _meta(cfg), **_json_safe(report.to_dict())}
    path = out / "exponent_report.json"
    _emit_json(path, payload)
    _emit_meta_sidecar(path, cfg, time.monotonic() - t0)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_exponent(cfg: ExperimentConfig, out: Path, workers: int | None) -> int:
    t0 = time.monotonic()
    model = cfg.build_model()
    if not cfg.levels:
        raise ConfigError("exponent command needs a nonempty levels list")
    report = verify_matching(
        model.arrivals.floats(),
        model.dist,
        model.subsets,
        multistarts=int(cfg.bounds["multistarts"]),
        seed=cfg.seed,
    )
    method = cfg.estimation["method"]
    all_estimates = []
    chosen = {}
    if method in ("auto", "direct"):
        direct, _ = direct_overflow_curve(
            model,
            cfg.policy,
            cfg.levels,
            replicas=cfg.replicas,
            horizon=cfg.horizon,
            seed=cfg.seed,
            sample_stride=cfg.sample_stride,
            burn_in_frac=cfg.burn_in_frac,
            workers=workers,
        )
        all_estimates.extend(direct)
        for est in direct:
            chosen[est.level] = est
    if method in ("auto", "importance") and model.subsets.all_singletons:
        phi = cfg.estimation.get("phi")
        if phi is None:
            phi_by_user = [model.dist.user_marginal(i) for i in range(model.num_users)]
            means = {i: sum(r * p for r, p in m.items()) for i, m in enumerate(phi_by_user)}
            phi = list(means.values())
            for pos, user in enumerate(sorted(a[0] for a in model.subsets.subsets)):
                phi[user] = report.phi_hat[pos]
        for level in cfg.levels:
            est = estimate_overflow_importance(
                model,
                cfg.policy,
                level,
                phi,
                replicas=int(cfg.estimation["cycles"]),
                seed=cfg.seed,
                horizon=cfg.estimation.get("is_horizon"),
                workers=workers,
            )
            all_estimates.append(est)
            prior = chosen.get(level)
            if prior is None or prior.events < 50:
                chosen[level] = est
    csv_path = out / "overflow_estimates.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with csv_path.open("w", newline="") as fh:
        fh.write(_csv_meta_line(cfg))
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "level", "p_hat", "ci_lo", "ci_hi", "replicas",
                "method", "events", "samples", "ess", "slots", "truncated", "flags",
            ],
        )
        writer.writeheader()
        for est in all_estimates:
            writer.writerow(est.to_row())
    fit = fit_exponent(list(chosen.values()))
    payload = {
        "meta": _meta(cfg, levels=cfg.levels),
        "fit": fit.to_dict(),
        "bounds": _json_safe(report.to_dict()),
        "comparison": {
            "fitted_exponent": fit.exponent,
            "predicted_exponent": report.jstar,
            "ratio": fit.exponent / report.jstar if report.jstar > 0 else None,
        },
    }
    path = out / "exponent_fit.json"
    _emit_json(path, payload)
    _emit_meta_sidecar(path, cfg, time.monotonic() - t0)
    print(f"wrote {csv_path} and {path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subsetsched",
        description="Queue-overflow simulation and exponent bounds for "
        "scheduling with subset-sampled channel state",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("simulate", "run the simulator and write a run summary"),
        ("bounds", "compute exponent bounds and write a report"),
        ("exponent", "estimate overflow probabilities, fit the exponent, compare to bounds"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to the experiment config JSON")
        p.add_argument("--output-dir", default=None, help="override the config output directory")
        p.add_argument("--workers", type=int, default=None, help="parallel replica workers")
    sub.add_parser("selftest", help="run the built-in oracle checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()
    try:
        cfg = load_config(args.config)
        workers = args.workers if args.workers is not None else cfg.workers
        out = _out_dir(cfg, args.output_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out)
        if args.command == "exponent":
            return cmd_exponent(cfg, out, workers)
        raise AssertionError("unreachable")
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except UnstableArrivalsError as exc:
        print(json.dumps({"error": "unstable arrival vector", "message": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": "runtime", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
