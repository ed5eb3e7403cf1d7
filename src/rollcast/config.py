"""Run configuration: strict JSON loading, flag overrides, and provenance headers.

Unknown keys are rejected at every nesting level, and every value must have
its field's type (`_VALUE_RULES`) before its section checks its range. Every
output file carries a machine-readable provenance header (config hash, seed,
package and numpy versions); nothing time-dependent goes in, so outputs stay
bit-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .fileio import atomic_open
from .gridio import VARIABLES, RegimeConfig
from .model import ModelConfig, PretrainConfig, check_at_least
from .scheduler.compare import POLICIES
from .scheduler.dqn import DQNConfig
from .scheduler.finetune import FinetuneConfig


class ConfigError(ValueError):
    """Unparseable or contradictory run configuration."""


@dataclass
class DataConfig:
    num_vars: int = 2
    lat_points: int = 16
    lon_points: int = 32
    base_step_hours: int = 6
    steps: int = 2000
    train_frac: float = 0.7
    val_frac: float = 0.1
    regime: RegimeConfig = field(default_factory=RegimeConfig)

    def __post_init__(self):
        check_at_least(self, num_vars=1, lat_points=2, lon_points=2, base_step_hours=1, steps=2)
        if self.num_vars > len(VARIABLES):
            raise ValueError(f"num_vars {self.num_vars} exceeds the {len(VARIABLES)} "
                             "variables the generator makes")
        if not (self.train_frac > 0 and self.val_frac >= 0 and self.train_frac + self.val_frac <= 1):
            raise ValueError(f"need train_frac > 0, val_frac >= 0 and a sum <= 1, got "
                             f"{self.train_frac} and {self.val_frac}")


@dataclass
class EvalConfig:
    leads: tuple[int, ...] = (6, 24, 72, 138)
    episodes: int = 50
    policy: str = "greedy"

    def __post_init__(self):
        if not self.leads or min(self.leads) < 1:
            raise ValueError(f"leads must be positive hours, got {list(self.leads)}")
        check_at_least(self, episodes=1)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {', '.join(POLICIES)}")


@dataclass
class CompareConfig:
    lead: int = 138
    episodes: int = 200

    def __post_init__(self):
        check_at_least(self, lead=1, episodes=1)


@dataclass
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    dqn: DQNConfig = field(default_factory=DQNConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    compare: CompareConfig = field(default_factory=CompareConfig)

    def __post_init__(self):
        check_at_least(self, seed=0)


# nested section name -> dataclass; annotations are strings under PEP 563
_NESTED_SECTIONS = {
    "regime": RegimeConfig,
    "data": DataConfig,
    "model": ModelConfig,
    "pretrain": PretrainConfig,
    "dqn": DQNConfig,
    "finetune": FinetuneConfig,
    "eval": EvalConfig,
    "compare": CompareConfig,
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _list_of(test):
    return lambda v: isinstance(v, (list, tuple)) and all(test(x) for x in v)


# field annotation -> (the test a loaded value must pass, what it must be)
_VALUE_RULES = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite, "a finite number"),
    "float | None": (lambda v: v is None or _is_finite(v), "null or a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (_list_of(_is_int), "a list of integers"),
    "tuple[float, ...]": (_list_of(_is_finite), "a list of finite numbers"),
}


def _from_dict(cls, d: dict, path: str = ""):
    if not isinstance(d, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in d.items():
        sub = f"{path}.{name}" if path else name
        if name in _NESTED_SECTIONS:
            kwargs[name] = _from_dict(_NESTED_SECTIONS[name], value, sub)
        else:
            test, what = _VALUE_RULES[fields[name].type]
            if not test(value):
                raise ConfigError(f"{sub} must be {what}, got {json.dumps(value)}")
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config at {path or cls.__name__}: {exc}") from exc


def config_from_dict(d: dict) -> RunConfig:
    return _from_dict(RunConfig, d)


def config_to_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(cfg: RunConfig, assignments) -> RunConfig:
    """Apply dotted key=value overrides (e.g. pretrain.steps=100) on top of a config."""
    d = config_to_dict(cfg)
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        node = d
        parts = key.split(".")
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise ConfigError(f"unknown config path {key!r}")
            node = node[p]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = value
    return config_from_dict(d)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def provenance(cfg: RunConfig) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "rollcast_version": __version__,
        "numpy_version": np.__version__,
    }


def write_csv(path, header, rows, prov: dict):
    """CSV with a '# provenance: {...}' comment line above the header row, written atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "w", newline="") as fh:
        fh.write("# provenance: " + json.dumps(prov, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """(provenance dict or None, header, rows) for CSVs written by write_csv."""
    lines = Path(path).read_text().splitlines()
    prov = None
    start = 0
    if lines and lines[0].startswith("# provenance:"):
        prov = json.loads(lines[0].split(":", 1)[1])
        start = 1
    rows = list(csv.reader(lines[start:]))
    return prov, rows[0], rows[1:]
