"""Experiment configuration: one JSON document fully determines a run.

The resolved configuration (defaults filled in) is hashed over every
result-determining field; outputs embed the hash so reruns are checkable.
Output directory and worker count are excluded from the hash: they cannot
change results by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .channels import JointChannelDistribution, SubsetSystem
from .policies import POLICY_NAMES, PolicySpec
from .simulate import ArrivalSpec, SystemModel


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


_BOUND_DEFAULTS = {"multistarts": 64}
_EST_DEFAULTS = {"method": "auto", "phi": None, "cycles": 20000, "is_horizon": None}


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class ExperimentConfig:
    num_users: int
    arrival_rates: list[str]
    channels: dict
    subsets: list[list[int]]
    policy: PolicySpec
    horizon: int
    levels: list[int]
    replicas: int
    seed: int
    burn_in_frac: float
    sample_stride: int | None
    workers: int | None
    bounds: dict
    estimation: dict
    output_dir: str
    record_trace: bool
    # the validated model, built once by load_config; not a hashed field
    _model: SystemModel = field(repr=False, compare=False)

    def hashed_fields(self) -> dict:
        return {
            "num_users": self.num_users,
            "arrival_rates": self.arrival_rates,
            "channels": self.channels,
            "subsets": self.subsets,
            "policy": {"name": self.policy.name, "params": list(self.policy.params)},
            "horizon": self.horizon,
            "levels": self.levels,
            "replicas": self.replicas,
            "seed": self.seed,
            "burn_in_frac": self.burn_in_frac,
            "sample_stride": self.sample_stride,
            "bounds": self.bounds,
            "estimation": self.estimation,
            "record_trace": self.record_trace,
        }

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.hashed_fields()).encode()).hexdigest()

    def build_model(self) -> SystemModel:
        """The channel law, subsets and arrivals that ``load_config`` validated."""
        return self._model


def _build_model(
    channels: Mapping[str, Any], subsets: list[list[int]], arrival_rates: list[str], num_users: int
) -> SystemModel:
    try:
        dist = _build_channels(channels, num_users)
        system = SubsetSystem.from_lists(subsets, num_users)
        arrivals = ArrivalSpec.from_values(arrival_rates)
        if arrivals.num_users != num_users:
            raise ConfigError(
                f"arrival_rates has {arrivals.num_users} entries, expected {num_users}"
            )
        return SystemModel(dist=dist, subsets=system, arrivals=arrivals)
    except (ValueError, IndexError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_channels(spec: Mapping[str, Any], num_users: int) -> JointChannelDistribution:
    kind = spec.get("kind")
    if kind == "product":
        tables = spec.get("per_user")
        if not isinstance(tables, list) or len(tables) != num_users:
            raise ConfigError("channels.per_user must list one rate table per user")
        parsed = []
        for i, table in enumerate(tables):
            if not isinstance(table, Mapping) or not table:
                raise ConfigError(f"channels.per_user[{i}] must be a nonempty rate->prob map")
            parsed.append({int(r): float(p) for r, p in table.items()})
        return JointChannelDistribution.product_form(parsed)
    if kind == "joint":
        support = spec.get("support")
        probs = spec.get("probs")
        if not isinstance(support, list) or not isinstance(probs, list):
            raise ConfigError("channels.joint needs 'support' and 'probs' lists")
        dist = JointChannelDistribution.from_table(support, probs)
        if dist.num_users != num_users:
            raise ConfigError(
                f"joint support states have {dist.num_users} users, expected {num_users}"
            )
        return dist
    raise ConfigError(f"channels.kind must be 'product' or 'joint', got {kind!r}")


def _as_rate_string(v: Any) -> str:
    # store rates canonically as exact fraction strings
    if isinstance(v, str):
        frac = Fraction(v)
    elif isinstance(v, int):
        frac = Fraction(v)
    elif isinstance(v, float):
        frac = Fraction(str(v))
    else:
        raise ConfigError(f"arrival rate {v!r} must be a number or 'p/q' string")
    if frac < 0:
        raise ConfigError(f"arrival rate {v!r} is negative")
    return str(frac)


def load_config(source: str | Path | Mapping[str, Any]) -> ExperimentConfig:
    """Parse and validate a config dict or JSON file; raises ConfigError."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a JSON object")

    def req(key: str) -> Any:
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
        return raw[key]

    num_users = int(req("num_users"))
    if num_users < 1:
        raise ConfigError("num_users must be >= 1")
    rates = req("arrival_rates")
    if not isinstance(rates, list):
        raise ConfigError("arrival_rates must be a list")
    arrival_rates = [_as_rate_string(v) for v in rates]
    channels = req("channels")
    subsets = req("subsets")
    if not isinstance(subsets, list) or not all(isinstance(s, list) for s in subsets):
        raise ConfigError("subsets must be a list of user-index lists")
    policy_raw = raw.get("policy", {"name": "max_queue"})
    if isinstance(policy_raw, str):
        policy_raw = {"name": policy_raw}
    name = policy_raw.get("name")
    if name not in POLICY_NAMES:
        raise ConfigError(f"policy.name must be one of {POLICY_NAMES}, got {name!r}")
    params = tuple(sorted((str(k), v) for k, v in policy_raw.items() if k != "name"))
    policy = PolicySpec(name=name, params=params)

    horizon = int(raw.get("horizon", 10000))
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    levels = [int(v) for v in raw.get("levels", [])]
    if any(v < 0 for v in levels):
        raise ConfigError("levels must be nonnegative")
    replicas = int(raw.get("replicas", 1))
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    seed = int(raw.get("seed", 0))
    burn_in_frac = float(raw.get("burn_in_frac", 0.2))
    if not 0.0 <= burn_in_frac < 1.0:
        raise ConfigError("burn_in_frac must be in [0, 1)")
    sample_stride = raw.get("sample_stride")
    if sample_stride is not None:
        sample_stride = int(sample_stride)
        if sample_stride < 1:
            raise ConfigError("sample_stride must be >= 1")
    workers = raw.get("workers")
    if workers is not None:
        workers = int(workers)

    bounds = dict(_BOUND_DEFAULTS)
    bounds.update(raw.get("bounds", {}))
    estimation = dict(_EST_DEFAULTS)
    estimation.update(raw.get("estimation", {}))
    if estimation["method"] not in ("auto", "direct", "importance"):
        raise ConfigError("estimation.method must be auto, direct, or importance")
    if int(estimation["cycles"]) < 1:
        raise ConfigError("estimation.cycles must be >= 1")
    if estimation["is_horizon"] is not None and int(estimation["is_horizon"]) < 1:
        raise ConfigError("estimation.is_horizon must be >= 1")

    channels = dict(channels) if isinstance(channels, Mapping) else channels
    subsets = [[int(i) for i in s] for s in subsets]
    return ExperimentConfig(
        num_users=num_users,
        arrival_rates=arrival_rates,
        channels=channels,
        subsets=subsets,
        policy=policy,
        horizon=horizon,
        levels=levels,
        replicas=replicas,
        seed=seed,
        burn_in_frac=burn_in_frac,
        sample_stride=sample_stride,
        workers=workers,
        bounds=bounds,
        estimation=estimation,
        output_dir=str(raw.get("output_dir", "out")),
        record_trace=bool(raw.get("record_trace", False)),
        # validate everything up front
        _model=_build_model(channels, subsets, arrival_rates, num_users),
    )
