"""Flat key=value run configuration with section prefixes.

Example:

    seed=7
    trainer.objective_count=2
    trainer.discount=0.99
    env.kind=treasure
    env.width=3

Values are kept as strings in a plain dict. The trainer.*, treasure and
locomotion env.* and qa.<k>.* keys are the fields of the object they
build (`TrainerConfig`, `TreasureGrid`, `ToyLocomotion`, `QaObjective`),
parsed by field annotation; that object holds the defaults and checks
the values, and a value it rejects is reported by its key.
`RunConfig.from_dict` records the keys its readers look up and rejects
every other key but the retired ones. Parse-then-serialize round-trips
the parsed content losslessly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import Callable

from .envs import (
    DiscreteToBox,
    SingleObjectiveView,
    TabularMomdp,
    ToyLocomotion,
    TreasureGrid,
    load_tabular,
    treasure_grid_to_tabular,
)
from .explain import MAXIMIZE, MINIMIZE, ExplainConfig, QaObjective, QaSpec
from .nets import read_text
from .training import TrainerConfig


class ConfigError(ValueError):
    """Invalid configuration content; message names the key or line."""


# Keys of earlier versions that no setting reads any more; they still load.
_RETIRED_KEYS = frozenset({"trainer.aols_epsilon", "trainer.aols_iteration_cap"})


class _ReadKeys(dict):
    """A config dict that records every key a reader looks up in it."""

    def __init__(self, cfg: dict[str, str]) -> None:
        super().__init__(cfg)
        self.read: set[str] = set()

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def serialize_config(cfg: dict[str, str]) -> str:
    return "\n".join(f"{key}={cfg[key]}" for key in sorted(cfg)) + "\n"


def load_config(path) -> dict[str, str]:
    return parse_config_text(read_text(path, ConfigError), source=str(path))


def _get(cfg: dict[str, str], key: str, cast: Callable, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _get_int(cfg, key, default=None) -> int:
    return _get(cfg, key, int, default)


def _get_finite_float(cfg, key, default=None) -> float:
    value = _get(cfg, key, float, default)
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: must be finite, got {value}")
    return value


def _get_positive_float(cfg, key, default=None) -> float:
    value = _get_finite_float(cfg, key, default)
    if value <= 0.0:
        raise ConfigError(f"config key {key!r}: must be positive, got {value}")
    return value


def _get_positive_int(cfg, key, default=None) -> int:
    value = _get_int(cfg, key, default)
    if value < 1:
        raise ConfigError(f"config key {key!r}: must be >= 1, got {value}")
    return value


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_treasures(text: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ValueError(f"treasure spec {chunk!r} must be row,col,value")
        out.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not out:
        raise ValueError("no treasures specified")
    return tuple(out)


def _parse_cell(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cell spec {text!r} must be row,col")
    return int(parts[0]), int(parts[1])


# Parsers by field annotation, as `from __future__ import annotations` leaves it.
_FIELD_CASTS = {
    "int": int, "float": float, "str": str, "tuple[int, ...]": _parse_int_tuple,
    "tuple[int, int]": _parse_cell, "tuple[tuple[int, int, float], ...]": _parse_treasures,
}


def _fields(cfg: dict[str, str], prefix: str, cls, **defaults) -> dict:
    """Keyword arguments of dataclass cls from its prefix + field keys, each
    parsed by the field's annotation. A field with no key takes the given
    default, or else the class's own; one with neither is a missing key."""
    kwargs = {}
    for f in fields(cls):
        if not f.init:
            continue
        key = prefix + f.name
        if key in cfg:
            kwargs[f.name] = _get(cfg, key, _FIELD_CASTS[f.type])
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required config key {key!r}")
    return kwargs


@contextmanager
def _keyed(prefix: str):
    """Report a ValueError, whose message starts with the rejected field, as
    a ConfigError naming that field's key; a ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key '{prefix}{str(exc).split()[0]}': {exc}") from exc


def build_trainer_config(cfg: dict[str, str], seed: int | None = None) -> TrainerConfig:
    """TrainerConfig from the trainer.* keys present, parsed by field annotation;
    the dataclass holds the other defaults. seed overrides the seed key."""
    if "trainer.seed" in cfg:
        raise ConfigError("config key 'trainer.seed' is not read; set the top-level key 'seed'")
    kwargs = _fields(cfg, "trainer.", TrainerConfig)
    # Membership first, so that the key counts as read under an override.
    if "seed" in cfg and seed is None:
        seed = _get_int(cfg, "seed")
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return TrainerConfig(**kwargs)
    except ValueError as exc:  # the message starts with the rejected field
        field = str(exc).split()[0]
        key = "seed" if field == "seed" else f"trainer.{field}"
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def build_env_factory(cfg: dict[str, str]) -> Callable[[], object]:
    """Environment factory from the env.* section; env.objective_index
    optionally projects the reward vector onto one channel. The environment
    classes hold the defaults and check the settings; one environment is
    built here, so that a rejected setting is reported by its key."""
    kind = _get(cfg, "env.kind", str)
    if kind == "treasure":
        with _keyed("env."):
            grid = TreasureGrid(**_fields(cfg, "env.", TreasureGrid))
        # The table is built once, not per env: eval and explain ask for a
        # fresh env on every call, and the build costs about 0.1 ms.
        momdp = treasure_grid_to_tabular(grid, discount=0.0)
        factory = lambda: DiscreteToBox(momdp, horizon=grid.horizon)
    elif kind == "locomotion":
        settings = _fields(cfg, "env.", ToyLocomotion)
        factory = lambda: ToyLocomotion(**settings)
    elif kind == "tabular":
        momdp = _load_momdp(cfg)
        horizon = _get_int(cfg, "env.horizon") if "env.horizon" in cfg else None
        factory = lambda: DiscreteToBox(momdp, horizon=horizon)
    else:
        raise ConfigError(f"config key 'env.kind': unknown environment {kind!r}")
    if "env.objective_index" in cfg:
        index, base_factory = _get_int(cfg, "env.objective_index"), factory
        factory = lambda: SingleObjectiveView(base_factory(), index)
    with _keyed("env."):
        factory()
    return factory


def _load_momdp(cfg: dict[str, str]) -> TabularMomdp:
    path = _get(cfg, "env.path", str)
    try:
        return load_tabular(path)
    except ValueError as exc:
        raise ConfigError(f"config key 'env.path': {exc}") from exc


def require_episode_end(cfg: dict[str, str]) -> None:
    """Reject a tabular config with no env.horizon before evaluating it.

    Evaluation runs each episode to its end, and a tabular episode need not
    end: its start states may reach no terminal state, or the policy's mean
    actions may avoid one that some action sequence reaches. Training runs
    a fixed number of steps and needs no horizon."""
    if cfg.get("env.kind") == "tabular" and "env.horizon" not in cfg:
        raise ConfigError(
            "config key 'env.horizon': evaluation runs each episode to its end, and a "
            "tabular problem's episodes need not end; set env.horizon"
        )


_LOCOMOTION_QA = QaSpec(
    (
        QaObjective("Rctrl", MINIMIZE, "the reward control"),
        QaObjective("Rcont", MINIMIZE, "the reward contact"),
        QaObjective("Rsurv", MAXIMIZE, "the reward survive"),
        QaObjective("Rfor", MAXIMIZE, "the reward forward"),
    )
)


def build_qa_spec(cfg: dict[str, str], objective_count: int) -> QaSpec:
    if "qa.0.name" not in cfg:
        if cfg.get("env.kind") == "locomotion" and objective_count == 4:
            return _LOCOMOTION_QA
        objectives = range(objective_count)
        return QaSpec(tuple(QaObjective(f"objective_{k}", MAXIMIZE, f"objective {k}") for k in objectives))
    entries: list[QaObjective] = []
    for k in range(objective_count):
        prefix = f"qa.{k}."
        with _keyed(prefix):
            entry = QaObjective(
                **_fields(cfg, prefix, QaObjective, direction=MAXIMIZE, phrase=f"objective {k}")
            )
        names = [e.name for e in entries]
        if entry.name in names:
            raise ConfigError(
                f"config key '{prefix}name': {entry.name!r} is already qa.{names.index(entry.name)}.name"
            )
        entries.append(entry)
    return QaSpec(tuple(entries))


def build_bench_settings(cfg: dict[str, str], objective_count: int) -> tuple[int, int]:
    """(baseline objective index, evaluation episodes) for `morlkit bench`."""
    index = _get_int(cfg, "bench.objective_index", objective_count - 1)
    if not 0 <= index < objective_count:
        raise ConfigError(f"config key 'bench.objective_index': {index} is not in 0..{objective_count - 1}")
    return index, _get_positive_int(cfg, "bench.episodes", 20)


def build_explain_config(cfg: dict[str, str], objective_count: int) -> ExplainConfig:
    prefixes = [f"explain.{k}." for k in range(objective_count)]
    return ExplainConfig(
        increments=tuple(_get_positive_float(cfg, f"{p}increment", 1.0) for p in prefixes),
        max_values=tuple(_get_finite_float(cfg, f"{p}max_value", 100.0) for p in prefixes),
        max_alternatives=tuple(_get_positive_int(cfg, f"{p}max_alternatives", 2) for p in prefixes),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, assembled from one flat config dict.
    bench is (baseline objective index, evaluation episodes) for `morlkit bench`."""

    raw: dict[str, str]
    trainer: TrainerConfig
    env_factory: Callable[[], object]
    qa: QaSpec
    explain: ExplainConfig
    bench: tuple[int, int]

    @classmethod
    def from_dict(cls, cfg: dict[str, str], seed: int | None = None) -> "RunConfig":
        """Run every reader on cfg, then reject each key that none of them
        read, unless it is a retired key of an earlier version."""
        reads = _ReadKeys(cfg)
        trainer = build_trainer_config(reads, seed)
        env_factory = build_env_factory(reads)
        channels = env_factory().objective_count
        if channels != trainer.objective_count:
            raise ConfigError(
                f"config key 'trainer.objective_count': {trainer.objective_count}, "
                f"but the environment emits {channels} reward channels"
            )
        effective = dict(cfg)
        effective["seed"] = str(trainer.seed)
        run = cls(
            raw=effective,
            trainer=trainer,
            env_factory=env_factory,
            qa=build_qa_spec(reads, trainer.objective_count),
            explain=build_explain_config(reads, trainer.objective_count),
            bench=build_bench_settings(reads, trainer.objective_count),
        )
        unread = sorted(set(cfg) - reads.read - _RETIRED_KEYS)
        if unread:
            raise ConfigError(
                f"config key{'s' if len(unread) > 1 else ''} {', '.join(map(repr, unread))}: "
                "not read by any setting (misspelt, for another env.kind, numbered past "
                "trainer.objective_count, or a qa.<k> key without qa.0.name)"
            )
        return run
