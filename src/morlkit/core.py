"""Core domain types and value algebra for vector-reward decision processes.

Everything here is an immutable value object: construct, validate, share.
Numpy arrays held by these types are frozen (writeable=False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SIMPLEX_ATOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ValueVector:
    """Per-objective expected discounted returns, one entry per objective."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("ValueVector needs at least one objective")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"ValueVector entries must be finite, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)


@dataclass(frozen=True)
class WeightVector:
    """Scalarization weights on the probability simplex.

    Entries are nonnegative and sum to one within SIMPLEX_ATOL. Tiny
    negative round-off (>= -SIMPLEX_ATOL) is clamped to zero on construction.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = [float(w) for w in self.weights]
        if len(vals) < 1:
            raise ValueError("WeightVector needs at least one entry")
        for k, w in enumerate(vals):
            if not math.isfinite(w):
                raise ValueError(f"weight {k} is not finite: {w}")
            if w < -SIMPLEX_ATOL:
                raise ValueError(f"weight {k} is negative: {w}")
            if w < 0.0:
                vals[k] = 0.0
        total = math.fsum(vals)
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"weights must sum to 1 (got {total})")
        object.__setattr__(self, "weights", tuple(vals))

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)


def simplex_extremum(dim: int, index: int) -> WeightVector:
    """Unit weight on one objective, zero on the rest."""
    if not 0 <= index < dim:
        raise ValueError(f"extremum index {index} out of range for dim {dim}")
    return WeightVector(tuple(1.0 if k == index else 0.0 for k in range(dim)))


def simplex_extrema(dim: int) -> list[WeightVector]:
    return [simplex_extremum(dim, k) for k in range(dim)]


def uniform_weight(dim: int) -> WeightVector:
    w = np.full(dim, 1.0 / dim)
    w[-1] = 1.0 - float(w[:-1].sum())
    return WeightVector(tuple(w))


def scalarize(w: WeightVector, v: ValueVector) -> float:
    """Collapse a value vector to a scalar via the weight's dot product."""
    if w.dim != v.dim:
        raise ValueError(f"dimension mismatch: weight {w.dim} vs value {v.dim}")
    return float(np.dot(w.array, v.array))


@dataclass(frozen=True)
class Iorm:
    """Square matrix of simplex rows quantifying cross-objective impact.

    Row i scalarizes the per-objective value vector into the proxy value
    trained against objective i.
    """

    rows: tuple[WeightVector, ...]

    def __post_init__(self) -> None:
        if len(self.rows) < 1:
            raise ValueError("Iorm needs at least one row")
        n = len(self.rows)
        for k, row in enumerate(self.rows):
            if row.dim != n:
                raise ValueError(f"row {k} has length {row.dim}, expected {n}")
        object.__setattr__(self, "rows", tuple(self.rows))

    @classmethod
    def identity(cls, dim: int) -> "Iorm":
        return cls(tuple(simplex_extremum(dim, k) for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([row.weights for row in self.rows], dtype=float)


@dataclass(frozen=True)
class TrajectoryBatch:
    """Rollout storage: per-step records plus episode boundary indices.

    Episode j spans [episode_starts[j], episode_starts[j+1]) with the last
    episode running to the end of the batch. An episode is complete when its
    final step carries the done flag.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    log_probs: np.ndarray
    episode_starts: tuple[int, ...]

    def __post_init__(self) -> None:
        rewards = np.asarray(self.rewards, dtype=float)
        if rewards.ndim != 2 or rewards.shape[1] < 1:
            raise ValueError("rewards must have shape (steps, objectives)")
        steps = rewards.shape[0]
        if steps < 1:
            raise ValueError("TrajectoryBatch needs at least one step")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        dones = np.asarray(self.dones, dtype=bool)
        log_probs = np.asarray(self.log_probs, dtype=float)
        if dones.shape != (steps,) or log_probs.shape != (steps,):
            raise ValueError("dones/log_probs must have one entry per step")
        states = np.asarray(self.states)
        actions = np.asarray(self.actions)
        if states.shape[0] != steps or actions.shape[0] != steps:
            raise ValueError("states/actions must have one row per step")
        starts = tuple(int(s) for s in self.episode_starts)
        if not starts or starts[0] != 0:
            raise ValueError("episode_starts must begin at 0")
        if any(b <= a for a, b in zip(starts, starts[1:])) or starts[-1] >= steps:
            raise ValueError("episode_starts must be strictly increasing and < steps")
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "actions", _freeze(actions))
        object.__setattr__(self, "rewards", _freeze(rewards))
        frozen_dones = dones.copy()
        frozen_dones.flags.writeable = False
        object.__setattr__(self, "dones", frozen_dones)
        object.__setattr__(self, "log_probs", _freeze(log_probs))
        object.__setattr__(self, "episode_starts", starts)

    @property
    def step_count(self) -> int:
        return int(self.rewards.shape[0])

    @property
    def objective_count(self) -> int:
        return int(self.rewards.shape[1])

    @property
    def num_episodes(self) -> int:
        return len(self.episode_starts)

    def episode_bounds(self, episode: int) -> tuple[int, int]:
        if not 0 <= episode < self.num_episodes:
            raise IndexError(f"episode {episode} out of range")
        lo = self.episode_starts[episode]
        hi = (
            self.episode_starts[episode + 1]
            if episode + 1 < self.num_episodes
            else self.step_count
        )
        return lo, hi

    def episode_is_complete(self, episode: int) -> bool:
        _, hi = self.episode_bounds(episode)
        return bool(self.dones[hi - 1])

    def complete_episodes(self) -> list[int]:
        return [j for j in range(self.num_episodes) if self.episode_is_complete(j)]


def discounted_return(traj: TrajectoryBatch, episode: int, gamma: float) -> ValueVector:
    """Per-objective discounted reward sum over one episode."""
    lo, hi = traj.episode_bounds(episode)
    if hi <= lo:
        raise ValueError(f"episode {episode} is empty")
    rewards = traj.rewards[lo:hi]
    weights = gamma ** np.arange(hi - lo, dtype=float)
    return ValueVector(tuple(weights @ rewards))


def empirical_value_estimate(
    trajs: TrajectoryBatch, gamma: float
) -> tuple[ValueVector, ValueVector]:
    """Monte-Carlo value estimate over complete episodes.

    Returns the per-objective mean and population standard deviation of the
    discounted episode returns.
    """
    episodes = trajs.complete_episodes()
    if not episodes:
        raise ValueError("no complete episodes in batch")
    returns = np.array([discounted_return(trajs, j, gamma).values for j in episodes])
    mean = returns.mean(axis=0)
    std = returns.std(axis=0)
    return ValueVector(tuple(mean)), ValueVector(tuple(std))
