"""Pairwise corner-weight enumeration, kept as a test reference.

`morlkit.ccs.corner_weights` enumerates vertices of the upper-surface
polytope over its facet rows. This module keeps the earlier construction,
which solves every square system built from dim-1 rows chosen among the
pairwise-equality hyperplanes {w.(V_a - V_b) = 0} and the boundary planes
{w_k = 0}, one system at a time. The two are written independently so that
the equivalence tests compare two algorithms, not one algorithm with itself.

At dim >= 4 this construction can pick linearly dependent pair rows, such
as (a, b), (a, c) and (b, c); the system is then consistent but
underdetermined, and the returned point lies on an edge of the surface
rather than at a vertex.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from morlkit.ccs import WEIGHT_MATCH_ATOL
from morlkit.core import ValueVector, WeightVector, simplex_extrema


def _clean_simplex_point(raw: np.ndarray) -> WeightVector | None:
    if not np.all(np.isfinite(raw)):
        return None
    if np.min(raw) < -WEIGHT_MATCH_ATOL or abs(raw.sum() - 1.0) > 1e-7:
        return None
    clipped = np.clip(raw, 0.0, None)
    return WeightVector(tuple(clipped / clipped.sum()))


def _near_any(w: WeightVector, pool: Sequence[WeightVector], atol: float) -> bool:
    return any(float(np.max(np.abs(w.array - other.array))) <= atol for other in pool)


def pairwise_corner_weights(s: Sequence[ValueVector]) -> list[WeightVector]:
    """Corner weights from pairwise-equality and boundary systems, sorted."""
    if not s:
        raise ValueError("corner_weights needs a nonempty set")
    dim = s[0].dim
    vals = np.array([v.values for v in s])
    corners: list[WeightVector] = list(simplex_extrema(dim))
    if dim == 1:
        return corners

    # ("pair", row, a, b) -> (V_a - V_b).w = 0 ; ("bound", row, -1, k) -> w_k = 0.
    all_rows = [
        ("pair", vals[a] - vals[b], a, b) for a, b in combinations(range(len(s)), 2)
    ] + [("bound", np.eye(dim)[k], -1, k) for k in range(dim)]

    for combo in combinations(range(len(all_rows)), dim - 1):
        system = np.ones((dim, dim))
        rhs = np.zeros(dim)
        rhs[0] = 1.0
        for j, idx in enumerate(combo):
            system[j + 1] = all_rows[idx][1]
        try:
            raw = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(system @ raw - rhs)) > 1e-7:
            continue
        w = _clean_simplex_point(raw)
        if w is None:
            continue
        dots = vals @ w.array
        top = float(dots.max())
        active = all(
            kind != "pair"
            or (dots[a] >= top - WEIGHT_MATCH_ATOL and dots[b] >= top - WEIGHT_MATCH_ATOL)
            for kind, _, a, b in (all_rows[idx] for idx in combo)
        )
        if active and not _near_any(w, corners, WEIGHT_MATCH_ATOL):
            corners.append(w)

    corners.sort(key=lambda wv: wv.weights)
    return corners
