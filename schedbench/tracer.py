"""Timing wrappers installed around the program's public functions.

The benchmark never edits the program.  It replaces module attributes
(functions, methods, classmethods) with wrappers and puts the originals
back afterwards.  A function that other modules imported by name, such
as ``verify_matching`` inside ``cli``, is replaced in every module of the
package that holds the same object, so calls through either name are
seen.

Two sets of wrappers exist:

- ``LIGHT``: the handful of entry points the workloads and the CLI call
  directly.  Their outermost calls give the ``bounds_s`` and
  ``montecarlo_s`` parts of a round.  They wrap a few calls per round, so
  they stay installed in the untraced runs that report end-to-end times.
- ``TRACED``: adds the inner layers (rate functions, LPs, hitting
  attempts, config and channel construction).  These run thousands of
  times per round and slow it, so they are installed only with
  ``--trace 1``, whose round times are never reported end to end.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_PACKAGE = "subsetsched"
_MODULES = ("channels", "simulate", "policies", "ratefn", "bounds", "estimate", "config", "cli")
_POLICY_NAMES = {
    "MaxExp": "max_exp",
    "MaxQueue": "max_queue",
    "UniformRandomSubset": "uniform_random",
    "RoundRobinSubset": "round_robin",
}


@dataclass(frozen=True)
class Target:
    """One wrapped program entry point.

    ``path`` is ``module:attr`` or ``module:Class.attr``.  ``category``
    ("bounds" or "montecarlo") adds outermost call time to that part of
    the round.  ``timed=False`` only counts calls, for functions cheap
    enough that two clock reads would distort them.  ``only_here``
    replaces the name in its own module alone (scipy's ``linprog`` is
    imported by two of them).
    """

    path: str
    category: str | None = None
    timed: bool = True
    only_here: bool = False


LIGHT = (
    Target("bounds:verify_matching", "bounds"),
    Target("bounds:jstar_singleton", "bounds"),
    Target("bounds:minimize_subset_upper_bound", "bounds"),
    Target("estimate:direct_overflow_curve", "montecarlo"),
    Target("estimate:estimate_overflow_importance", "montecarlo"),
    Target("estimate:fit_exponent", "montecarlo"),
    Target("simulate:Simulator.__init__", "montecarlo"),
    Target("simulate:Simulator.run", "montecarlo"),
)

TRACED = LIGHT + (
    Target("bounds:upper_bound_min"),
    Target("bounds:drift_solve", timed=False),
    Target("bounds:subset_upper_bound", timed=False),
    Target("bounds:linprog", only_here=True),
    Target("ratefn:ScalarRateFunction.rate"),
    Target("ratefn:region_vertices"),
    Target("ratefn:sanov_rate", timed=False),
    Target("simulate:Simulator.run_hitting"),
    Target("config:load_config"),
    Target("config:ExperimentConfig.build_model"),
    Target("channels:JointChannelDistribution.product_form"),
    Target("channels:JointChannelDistribution.substate_marginal", timed=False),
    Target("cli:cmd_exponent"),
)


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    slots: int = 0  # run_hitting: summed slots
    ess: float = 0.0  # importance estimates: summed ESS
    replicas: int = 0  # importance estimates: summed attempts
    by_policy: dict = field(default_factory=dict)  # Simulator.run: policy -> [slots, s]


class Tracer:
    """Installs wrappers and accumulates per-target stats."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # outermost (start, end) intervals of each category's calls
        self.intervals: dict[str, list[tuple[float, float]]] = {"bounds": [], "montecarlo": []}
        self._depth: dict[str, int] = {"bounds": 0, "montecarlo": 0}
        self._entered: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        for cat in self.intervals:
            self.intervals[cat] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrapping ----------------------------------------------------------

    def _make_wrapper(self, name: str, target: Target, fn: Callable) -> Callable:
        stat_of = self.stat
        cat = target.category
        depth = self._depth
        entered = self._entered
        intervals = self.intervals

        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat_of(name).calls += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if cat is not None:
                depth[cat] += 1
                if depth[cat] == 1:
                    entered[cat] = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if cat is not None:
                    depth[cat] -= 1
                    if depth[cat] == 0:
                        intervals[cat].append((entered[cat], t1))
            st = stat_of(name)
            st.calls += 1
            st.seconds += t1 - t0
            self._observe(name, st, args, kwargs, out, t1 - t0)
            return out

        return timed

    @staticmethod
    def _observe(name: str, st: Stat, args, kwargs, out, dt: float) -> None:
        if name == "simulate.Simulator.run":
            policy = args[1] if len(args) > 1 else kwargs["policy"]
            horizon = int(args[2] if len(args) > 2 else kwargs["horizon"])
            key = _POLICY_NAMES.get(type(policy).__name__, type(policy).__name__)
            slot_s = st.by_policy.setdefault(key, [0, 0.0])
            slot_s[0] += horizon
            slot_s[1] += dt
        elif name == "simulate.Simulator.run_hitting":
            st.slots += int(out[2])
        elif name == "estimate.estimate_overflow_importance":
            st.ess += float(out.ess or 0.0)
            st.replicas += int(out.replicas)

    def install(self, targets: tuple[Target, ...]) -> None:
        modules = {m: importlib.import_module(f"{_PACKAGE}.{m}") for m in _MODULES}
        for target in targets:
            mod_name, attr_path = target.path.split(":")
            name = f"{mod_name}.{attr_path}"
            owner: Any = modules[mod_name]
            *classes, attr = attr_path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr] if classes else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._make_wrapper(name, target, raw.__func__))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._make_wrapper(name, target, raw)
            if classes or target.only_here:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules.values():
                if getattr(mod, attr, None) is raw:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
