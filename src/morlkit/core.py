"""Core domain types and value algebra for vector-reward decision processes.

Everything here is an immutable value object: construct, validate, share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

SIMPLEX_ATOL = 1e-9


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
