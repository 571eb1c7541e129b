"""Run one benchmark workload and print its metrics.

    python3 schedbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One process, one thread: replica parallelism is ``workers=1`` in every
call, and BLAS/OpenMP pools are pinned to one thread before numpy loads.

The run times one cold set-up (from process start through imports,
``load_config`` and the model builds), then repeats identical rounds of
the workload's program calls while another round still fits in
``--seconds`` (always at least one).  Outputs are checked after each
round, off the clock.  Reported times are wall times rescaled to a fixed
interpreter speed by ``speed.SpeedProbe``, which cancels the slowdowns
other tenants of the host cause; the raw ones are printed too.
``--trace 0`` reports the end-to-end metrics (medians over rounds);
``--trace 1`` runs a warm-up round and an untraced round, then traced
rounds, and reports the per-layer metrics and the tracing overhead.  The
last line printed is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POLICIES = ("max_queue", "uniform_random", "max_exp", "round_robin")


def process_age() -> float:
    """Seconds since this process was started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(ops, tr) -> tuple[dict, dict]:
    """Make every operation's program calls once; returns (results, timing)."""
    tr.reset()
    results: dict = {}
    calls = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            results[op.name] = op.call()
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            results[op.name] = exc
        calls.append((t0, time.perf_counter()))
    timing = {"round_s": calls, "bounds_s": tr.intervals["bounds"],
              "montecarlo_s": tr.intervals["montecarlo"], "stats": dict(tr.stats)}
    return results, timing


def check_round(ops, results: dict, first: dict, tally: dict) -> bool:
    """Check one round's outputs; returns False on an unexplained failure.

    Claims are tallied by name.  An output that differs from round 1's
    makes the run incorrect without adding an operation, so every round
    attempts the same number of operations.
    """
    import checks

    ok = True
    for op in ops:
        raw = results[op.name]
        if isinstance(raw, Exception):
            claims = [(f"{op.name}.raised", (False, "".join(
                traceback.format_exception_only(type(raw), raw)).strip()), None)]
        else:
            try:
                claims = op.check(raw, results)
            except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails
                claims = [(f"{op.name}.check", (False, repr(exc)), None)]
            repeated, detail = checks.same_as_first(op.fingerprint(raw),
                                                    first.setdefault(op.name, op.fingerprint(raw)))
            if not repeated:
                print(f"NOT REPEATED {op.name}: {detail}")
                ok = False
        for name, (passed, detail), fault in claims:
            entry = tally.setdefault(name, {"attempted": 0, "failed": 0, "fault": fault,
                                            "detail": detail})
            entry["attempted"] += 1
            if not passed:
                entry["failed"] += 1
                entry["detail"] = detail
                ok = ok and fault is not None
    return ok


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer figures of one traced round (see README.md for the map)."""
    from tracer import Stat

    def s(name: str) -> Stat:
        return stats.get(name, Stat())

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    hit = s("simulate.Simulator.run_hitting")
    imp = s("estimate.estimate_overflow_importance")
    lp = s("bounds.linprog")
    rate = s("ratefn.ScalarRateFunction.rate")
    verts = s("ratefn.region_vertices")
    by_policy = s("simulate.Simulator.run").by_policy
    out = {
        "bounds.verify_matching_s": s("bounds.verify_matching").seconds,
        "bounds.jstar_singleton_s": s("bounds.jstar_singleton").seconds,
        "bounds.upper_bound_min_s": s("bounds.upper_bound_min").seconds,
        "bounds.drift_solve_calls": s("bounds.drift_solve").calls,
        "ratefn.rate_calls": rate.calls,
        "ratefn.rate_s": rate.seconds,
        "bounds.minimize_subset_upper_bound_s": s("bounds.minimize_subset_upper_bound").seconds,
        "bounds.subset_upper_bound_calls": s("bounds.subset_upper_bound").calls,
        "bounds.linprog_calls": lp.calls,
        "bounds.linprog_s": lp.seconds,
        "ratefn.region_vertices_calls": verts.calls,
        "ratefn.region_vertices_s": verts.seconds,
        "ratefn.sanov_rate_calls": s("ratefn.sanov_rate").calls,
        "simulate.hitting_attempts": hit.calls,
        "simulate.hitting_attempts_per_s": per_s(hit.calls, hit.seconds),
        "simulate.hitting_slots_per_s": per_s(hit.slots, hit.seconds),
        "simulate.slots_per_attempt": per_s(hit.slots, hit.calls),
        "estimate.importance_s": imp.seconds,
        "estimate.is_ess_per_attempt": per_s(imp.ess, imp.replicas),
        "estimate.direct_s": s("estimate.direct_overflow_curve").seconds,
        "estimate.fit_exponent_s": s("estimate.fit_exponent").seconds,
        "channels.substate_marginal_calls": s(
            "channels.JointChannelDistribution.substate_marginal").calls,
        "cli.cmd_exponent_s": s("cli.cmd_exponent").seconds,
    }
    for policy in POLICIES:
        slots, seconds = by_policy.get(policy, (0, 0.0))
        out[f"simulate.run_slots_per_s.{policy}"] = per_s(slots, seconds)
    return out


UNITS = {"_s": "s", "_calls": "count", "_per_s": "1/s", "attempts": "count",
         "per_attempt": "ratio", "_mb": "MB"}


def unit_of(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return run(args, probe, started=time.perf_counter() - process_age())
    finally:
        probe.stop()


def run(args: argparse.Namespace, probe: speed.SpeedProbe, started: float) -> int:
    if not (SRC / "subsetsched" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/subsetsched; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tr = tracer.Tracer()
    if args.trace:
        tr.install(tracer.TRACED)
    prepared = workload.prepare(args.seed)
    setup_end = time.perf_counter()
    setup_stats = dict(tr.stats)
    tr.uninstall()
    tr.install(tracer.LIGHT)

    ops = workload.ops(prepared, args.seed)
    first: dict = {}
    tally: dict = {}
    timings: list[dict] = []
    untraced = None
    correct = True
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        if args.trace and untraced is None and len(timings) == 2:
            # round 1 warms up; round 2 is the untraced baseline of the overhead
            untraced = timings[1]
            timings = []
            tr.uninstall()
            tr.install(tracer.TRACED)
        began = time.perf_counter()
        results, timing = run_round(ops, tr)
        timings.append(timing)
        correct = check_round(ops, results, first, tally) and correct
        now = time.perf_counter()
        longest = max(longest, now - began)
        # start another round only if one as long as the longest so far still fits
        if now + longest > deadline and (not args.trace or untraced is not None):
            break
    probe.stop()
    tr.uninstall()

    def seconds(intervals, adjust=True) -> float:
        return sum(probe.adjusted(a, b) if adjust else b - a for a, b in intervals)

    def median_of(key: str, adjust=True) -> float:
        return statistics.median(seconds(t[key], adjust) for t in timings)

    # from process start; the stretch before the first sample takes its speed
    setup_s = probe.adjusted(started, setup_end)

    if args.trace:
        per_round = [layer_metrics(t["stats"]) for t in timings]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        metrics["config.load_config_s"] = setup_stats.get(
            "config.load_config", tracer.Stat()).seconds
        metrics["config.build_model_s"] = setup_stats.get(
            "config.ExperimentConfig.build_model", tracer.Stat()).seconds
        metrics["channels.product_form_s"] = setup_stats.get(
            "channels.JointChannelDistribution.product_form", tracer.Stat()).seconds
        metrics["policies.choose_subset_per_s.max_exp"] = (
            workload.choose_subset_rate(prepared) if workload.choose_subset_rate else 0.0)
        metrics["trace.overhead_s"] = median_of("round_s") - seconds(untraced["round_s"])
    else:
        metrics = {
            "setup_s": setup_s,
            "round_s": median_of("round_s"),
            "bounds_s": median_of("bounds_s"),
            "montecarlo_s": median_of("montecarlo_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key in ("round_s", "bounds_s", "montecarlo_s"):
            print(f"unadjusted {key} {median_of(key, adjust=False):.6g} s")
        print(f"unadjusted setup_s {setup_end - started:.6g} s")
        print(f"probe samples {len(probe.probes)}, "
              f"median {statistics.median(probe.probes) * 1e6:.1f} us")

    attempted = sum(e["attempted"] for e in tally.values())
    failed = sum(e["failed"] for e in tally.values())
    print(f"workload {args.workload} seed {args.seed}: {len(timings)} rounds"
          f"{' traced after a warm-up and an untraced one' if args.trace else ''}")
    for name, e in tally.items():
        if e["failed"]:
            tag = e["fault"] or "UNEXPECTED"
            print(f"FAILED {tag} {name}: {e['failed']}/{e['attempted']} - {e['detail']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"attempted {attempted} failed {failed} correct {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
