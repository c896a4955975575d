"""Flat key=value run configuration with section prefixes.

Example:

    seed=7
    trainer.objective_count=2
    trainer.discount=0.99
    env.kind=treasure
    env.width=3

Values are kept as strings in a plain dict; typed accessors convert on
demand and report the offending key on failure. Parse-then-serialize
round-trips the parsed content losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .envs import (
    SingleObjectiveView,
    TabularMomdp,
    ToyLocomotion,
    TreasureGrid,
    boxed_tabular,
    boxed_treasure,
    load_tabular,
)
from .explain import MAXIMIZE, MINIMIZE, ExplainConfig, QaObjective, QaSpec
from .training import TrainerConfig


class ConfigError(ValueError):
    """Invalid configuration content; message names the key or line."""


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


def _get_float(cfg, key, default=None) -> float:
    return _get(cfg, key, float, default)


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def build_trainer_config(cfg: dict[str, str], seed: int | None = None) -> TrainerConfig:
    try:
        return TrainerConfig(
            objective_count=_get_int(cfg, "trainer.objective_count"),
            updates_per_objective=_get_int(cfg, "trainer.updates_per_objective"),
            clip_epsilon=_get_float(cfg, "trainer.clip_epsilon", 0.2),
            discount=_get_float(cfg, "trainer.discount", 0.99),
            gae_lambda=_get_float(cfg, "trainer.gae_lambda", 0.95),
            steps_per_update=_get_int(cfg, "trainer.steps_per_update", 2048),
            env_copies=_get_int(cfg, "trainer.env_copies", 8),
            epochs_per_update=_get_int(cfg, "trainer.epochs_per_update", 10),
            minibatch_size=_get_int(cfg, "trainer.minibatch_size", 64),
            learning_rate=_get_float(cfg, "trainer.learning_rate", 3e-4),
            termination_epsilon=_get_float(cfg, "trainer.termination_epsilon", 0.0),
            hidden_sizes=_get(cfg, "trainer.hidden_sizes", _parse_int_tuple, (64, 64)),
            seed=seed if seed is not None else _get_int(cfg, "seed", 0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"trainer configuration: {exc}") from exc


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


def build_env_factory(cfg: dict[str, str]) -> Callable[[], object]:
    """Environment factory from the env.* section; env.objective_index
    optionally projects the reward vector onto one channel."""
    kind = _get(cfg, "env.kind", str)
    if kind == "treasure":
        grid = TreasureGrid(
            width=_get_int(cfg, "env.width", 3),
            height=_get_int(cfg, "env.height", 3),
            treasures=_get(cfg, "env.treasures", _parse_treasures, ((0, 2, 3.0), (2, 2, 12.0))),
            step_penalty=_get_float(cfg, "env.step_penalty", -1.0),
            horizon=_get_int(cfg, "env.horizon", 10),
            start=_get(cfg, "env.start", _parse_cell, (0, 0)),
        )
        base_factory = lambda: boxed_treasure(grid)
    elif kind == "locomotion":
        horizon = _get_int(cfg, "env.horizon", 200)
        bonus = _get_float(cfg, "env.survive_bonus", 1.0)
        half_width = _get_float(cfg, "env.half_width", 5.0)
        contact_limit = _get_int(cfg, "env.contact_limit", 10)
        start_noise = _get_float(cfg, "env.start_noise", 0.1)
        base_factory = lambda: ToyLocomotion(
            horizon=horizon,
            survive_bonus=bonus,
            half_width=half_width,
            contact_limit=contact_limit,
            start_noise=start_noise,
        )
    elif kind == "tabular":
        path = _get(cfg, "env.path", str)
        try:
            momdp = load_tabular(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config key 'env.path': {exc}") from exc
        base_factory = lambda: boxed_tabular(momdp)
    else:
        raise ConfigError(f"config key 'env.kind': unknown environment {kind!r}")
    if "env.objective_index" in cfg:
        index = _get_int(cfg, "env.objective_index")
        return lambda: SingleObjectiveView(base_factory(), index)
    return base_factory


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
    entries = []
    for k in range(objective_count):
        entries.append(
            QaObjective(
                name=_get(cfg, f"qa.{k}.name", str),
                qa_type=_get(cfg, f"qa.{k}.type", str, "Standard measurement"),
                direction=_get(cfg, f"qa.{k}.direction", str, MAXIMIZE),
                phrase=_get(cfg, f"qa.{k}.phrase", str, f"objective {k}"),
                precision=_get_int(cfg, f"qa.{k}.precision", 3),
            )
        )
    try:
        return QaSpec(tuple(entries))
    except ValueError as exc:
        raise ConfigError(f"qa configuration: {exc}") from exc


def build_explain_config(cfg: dict[str, str], objective_count: int) -> ExplainConfig:
    try:
        return ExplainConfig(
            increments=tuple(
                _get_float(cfg, f"explain.{k}.increment", 1.0)
                for k in range(objective_count)
            ),
            max_values=tuple(
                _get_float(cfg, f"explain.{k}.max_value", 100.0)
                for k in range(objective_count)
            ),
            max_alternatives=tuple(
                _get_int(cfg, f"explain.{k}.max_alternatives", 2)
                for k in range(objective_count)
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"explain configuration: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, assembled from one flat config dict."""

    raw: dict[str, str]
    trainer: TrainerConfig
    env_factory: Callable[[], object]
    qa: QaSpec
    explain: ExplainConfig

    @classmethod
    def from_dict(cls, cfg: dict[str, str], seed: int | None = None) -> "RunConfig":
        trainer = build_trainer_config(cfg, seed)
        effective = dict(cfg)
        effective["seed"] = str(trainer.seed)
        return cls(
            raw=effective,
            trainer=trainer,
            env_factory=build_env_factory(cfg),
            qa=build_qa_spec(cfg, trainer.objective_count),
            explain=build_explain_config(cfg, trainer.objective_count),
        )
