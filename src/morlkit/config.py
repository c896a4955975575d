"""Flat key=value run configuration with section prefixes.

Example:

    seed=7
    trainer.objective_count=2
    trainer.discount=0.99
    env.kind=treasure
    env.width=3

Values are kept as strings in a plain dict; typed accessors convert on
demand and report the offending key on failure. `RunConfig.from_dict`
records the keys its readers look up and rejects every other key but the
retired ones. Parse-then-serialize round-trips the parsed content
losslessly.
"""

from __future__ import annotations

import math
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


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


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _get_positive_int(cfg, key, default=None) -> int:
    value = _get_int(cfg, key, default)
    if value < 1:
        raise ConfigError(f"config key {key!r}: must be >= 1, got {value}")
    return value


_FIELD_CASTS = {"int": int, "float": float, "tuple[int, ...]": _parse_int_tuple}


def build_trainer_config(cfg: dict[str, str], seed: int | None = None) -> TrainerConfig:
    """TrainerConfig from the trainer.* keys present, parsed by field annotation;
    the dataclass holds the other defaults. seed overrides the seed key."""
    if "trainer.seed" in cfg:
        raise ConfigError("config key 'trainer.seed' is not read; set the top-level key 'seed'")
    kwargs = {
        f.name: _get(cfg, f"trainer.{f.name}", _FIELD_CASTS[f.type])
        for f in fields(TrainerConfig)
        if f.name != "seed" and (f"trainer.{f.name}" in cfg or f.default is MISSING)
    }
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


def _parse_treasures(text: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ValueError(f"treasure spec {chunk!r} must be row,col,value")
        value = float(parts[2])
        if not math.isfinite(value):
            raise ValueError(f"treasure value {value} is not finite")
        out.append((int(parts[0]), int(parts[1]), value))
    if not out:
        raise ValueError("no treasures specified")
    return tuple(out)


def _parse_cell(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cell spec {text!r} must be row,col")
    return int(parts[0]), int(parts[1])


def build_env_factory(cfg: dict[str, str]) -> Callable[[], object]:
    """Environment factory from the env.* section; env.objective_index
    optionally projects the reward vector onto one channel."""
    kind = _get(cfg, "env.kind", str)
    if kind == "treasure":
        width = _get_positive_int(cfg, "env.width", 3)
        height = _get_positive_int(cfg, "env.height", 3)
        treasures = _get(cfg, "env.treasures", _parse_treasures, ((0, 2, 3.0), (2, 2, 12.0)))
        step_penalty = _get_finite_float(cfg, "env.step_penalty", -1.0)
        horizon = _get_positive_int(cfg, "env.horizon", 10)
        start = _get(cfg, "env.start", _parse_cell, (0, 0))
        if not (0 <= start[0] < height and 0 <= start[1] < width):
            raise ConfigError(f"config key 'env.start': cell {start} outside the {height}x{width} grid")
        try:
            grid = TreasureGrid(
                width=width, height=height, treasures=treasures,
                step_penalty=step_penalty, horizon=horizon, start=start,
            )
        except ValueError as exc:  # a treasure off the grid, twice or on the start
            raise ConfigError(f"config key 'env.treasures': {exc}") from exc
        # The table is built once, not per env: eval and explain ask for a
        # fresh env on every call, and the build costs about 0.1 ms.
        momdp = treasure_grid_to_tabular(grid, discount=0.0)
        base_factory = lambda: DiscreteToBox(momdp, horizon=grid.horizon)
    elif kind == "locomotion":
        horizon = _get_positive_int(cfg, "env.horizon", 200)
        bonus = _get_finite_float(cfg, "env.survive_bonus", 1.0)
        half_width = _get_positive_float(cfg, "env.half_width", 5.0)
        contact_limit = _get_positive_int(cfg, "env.contact_limit", 10)
        start_noise = _get_finite_float(cfg, "env.start_noise", 0.1)
        base_factory = lambda: ToyLocomotion(
            horizon=horizon,
            survive_bonus=bonus,
            half_width=half_width,
            contact_limit=contact_limit,
            start_noise=start_noise,
        )
    elif kind == "tabular":
        momdp = _load_momdp(cfg)
        horizon = _get_positive_int(cfg, "env.horizon") if "env.horizon" in cfg else None
        base_factory = lambda: DiscreteToBox(momdp, horizon=horizon)
    else:
        raise ConfigError(f"config key 'env.kind': unknown environment {kind!r}")
    if "env.objective_index" in cfg:
        index = _get_int(cfg, "env.objective_index")
        count = base_factory().objective_count
        if not 0 <= index < count:
            raise ConfigError(f"config key 'env.objective_index': {index} is not in 0..{count - 1}")
        return lambda: SingleObjectiveView(base_factory(), index)
    return base_factory


def _load_momdp(cfg: dict[str, str]) -> TabularMomdp:
    path = _get(cfg, "env.path", str)
    try:
        return load_tabular(path)
    except (OSError, ValueError) as exc:
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
        QaObjective("Rctrl", "Standard measurement", MINIMIZE, "the reward control"),
        QaObjective("Rcont", "Standard measurement", MINIMIZE, "the reward contact"),
        QaObjective("Rsurv", "Standard measurement", MAXIMIZE, "the reward survive"),
        QaObjective("Rfor", "Standard measurement", MAXIMIZE, "the reward forward"),
    )
)


def build_qa_spec(cfg: dict[str, str], objective_count: int) -> QaSpec:
    if "qa.0.name" not in cfg:
        if cfg.get("env.kind") == "locomotion" and objective_count == 4:
            return _LOCOMOTION_QA
        return QaSpec(
            tuple(
                QaObjective(
                    name=f"objective_{k}",
                    qa_type="Standard measurement",
                    direction=MAXIMIZE,
                    phrase=f"objective {k}",
                )
                for k in range(objective_count)
            )
        )
    entries: list[QaObjective] = []
    for k in range(objective_count):
        try:
            entry = QaObjective(
                name=_get(cfg, f"qa.{k}.name", str),
                qa_type=_get(cfg, f"qa.{k}.type", str, "Standard measurement"),
                direction=_get(cfg, f"qa.{k}.direction", str, MAXIMIZE),
                phrase=_get(cfg, f"qa.{k}.phrase", str, f"objective {k}"),
                precision=_get_int(cfg, f"qa.{k}.precision", 3),
            )
        except ConfigError:
            raise
        except ValueError as exc:  # the message starts with the rejected field
            raise ConfigError(f"config key 'qa.{k}.{str(exc).split()[0]}': {exc}") from exc
        names = [e.name for e in entries]
        if entry.name in names:
            raise ConfigError(
                f"config key 'qa.{k}.name': {entry.name!r} is already qa.{names.index(entry.name)}.name"
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
