"""Three earlier corner-weight enumerations, kept as test references.

`morlkit.ccs.corner_weights` adds the vectors one at a time and finds each
new corner on an edge that the newest vector cuts, with no linear solve.

`incremental_corner_weights` is the form it replaced: it also adds the
vectors one at a time, but solves every facet system that contains the
newest vector's row.

`rebuilt_corner_weights` is older: it solves all C(n + dim, dim) facet
systems of the whole set in one pass.

`pairwise_corner_weights` is older still: it solves every square system
built from dim-1 rows chosen among the pairwise-equality hyperplanes
{w.(V_a - V_b) = 0} and the boundary planes {w_k = 0}, one system at a
time. It is written independently of the facet form, so that the
equivalence tests compare two algorithms, not one algorithm with itself.

At dim >= 4 this construction can pick linearly dependent pair rows, such
as (a, b), (a, c) and (b, c); the system is then consistent but
underdetermined, and the returned point lies on an edge of the surface
rather than at a vertex.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from morlkit.ccs import RANK_RTOL, WEIGHT_MATCH_ATOL, _append_distinct
from morlkit.core import ValueVector, WeightVector, simplex_extrema

# The facet systems are solved this many at a time, so their memory does
# not grow with the number of subsets.
CORNER_BLOCK = 4096


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


def rebuilt_corner_weights(s: Sequence[ValueVector]) -> list[WeightVector]:
    """Vertices of the upper surface from all C(n + dim, dim) facet
    systems of the whole set, solved in batches; sorted.

    Every vertex of the polytope {(w, u) : w in simplex, u >= w.V} solves
    the simplex row [1..1, 0] = 1 together with dim of its n + dim facet
    rows ([V, -1] per vector, [e_k, 0] per bound). Rank-deficient systems
    are dropped before the solve; a solution is kept when it solves its
    system, lies on the simplex and its u reaches the envelope there.
    Simplex extrema come first; points within WEIGHT_MATCH_ATOL of an
    earlier one are dropped.
    """
    if not s:
        raise ValueError("corner_weights needs a nonempty set")
    dim = s[0].dim
    vals = np.array([v.values for v in s])
    vals -= vals.max(axis=0)
    facets = np.vstack(
        [
            np.hstack([vals, -np.ones((len(s), 1))]),
            np.hstack([np.eye(dim), np.zeros((dim, 1))]),
        ]
    )
    simplex_row = np.append(np.ones(dim), 0.0)
    rhs = np.zeros(dim + 1)
    rhs[0] = 1.0

    found = [np.eye(dim)]
    subsets = combinations(range(len(facets)), dim)
    for _ in range(0, math.comb(len(facets), dim), CORNER_BLOCK):
        block = np.fromiter(
            chain.from_iterable(islice(subsets, CORNER_BLOCK)), dtype=np.intp
        ).reshape(-1, dim)
        systems = np.empty((len(block), dim + 1, dim + 1))
        systems[:, 0] = simplex_row
        systems[:, 1:] = facets[block]
        scale = np.prod(np.linalg.norm(systems, axis=2), axis=1)
        full_rank = np.abs(np.linalg.det(systems)) > RANK_RTOL * scale
        block, systems = block[full_rank], systems[full_rank]
        columns = np.broadcast_to(rhs[:, None], (len(systems), dim + 1, 1))
        raw = np.linalg.solve(systems, columns)[..., 0]
        residual = np.max(np.abs(np.einsum("bij,bj->bi", systems, raw) - rhs), axis=1)
        w, u = raw[:, :dim].copy(), raw[:, dim]
        picked, slot = np.nonzero(block >= len(s))
        w[picked, block[picked, slot] - len(s)] = 0.0
        ok = (
            (residual <= 1e-7)
            & (np.min(w, axis=1) >= -WEIGHT_MATCH_ATOL)
            & (np.abs(w.sum(axis=1) - 1.0) <= 1e-7)
        )
        w = np.clip(w[ok], 0.0, None)
        w /= w.sum(axis=1, keepdims=True)
        envelope = np.max(w @ vals.T, axis=1)
        found.append(w[u[ok] >= envelope - WEIGHT_MATCH_ATOL])

    points = np.vstack(found)
    keep: list[int] = []
    for k, point in enumerate(points):
        if not keep or np.max(np.abs(points[keep] - point), axis=1).min() > WEIGHT_MATCH_ATOL:
            keep.append(k)
    return sorted((WeightVector(tuple(points[k])) for k in keep), key=lambda wv: wv.weights)


def incremental_corner_weights(s: Sequence[ValueVector]) -> list[WeightVector]:
    """Vertices of the upper surface, one vector at a time, from every
    facet system that holds the newest vector's row; sorted.

    The corners of the vectors before vector j are kept, less those where
    w.V_j exceeds the envelope by more than WEIGHT_MATCH_ATOL (the simplex
    extrema always stay). Every new vertex lies on vector j's facet, so it
    solves the simplex row [1..1, 0] = 1 together with row j and dim - 1 of
    the other j + dim facet rows, rows in index order (vectors, then
    bounds): C(j + dim, dim - 1) systems, filtered as in
    `rebuilt_corner_weights`. A solution joins when it is farther than
    WEIGHT_MATCH_ATOL from every corner kept before it.
    """
    if not s:
        raise ValueError("corner_weights needs a nonempty set")
    vals = np.array([v.values for v in s])
    vals -= vals.max(axis=0)
    dim = vals.shape[1]
    points = np.eye(dim)
    simplex_row = np.append(np.ones(dim), 0.0)
    rhs = np.zeros(dim + 1)
    rhs[0] = 1.0
    for j in range(len(vals)):
        current = vals[: j + 1]
        if j > 0:
            dots = points[dim:] @ current.T
            lifted = dots[:, j] > dots[:, :j].max(axis=1) + WEIGHT_MATCH_ATOL
            points = np.vstack([points[:dim], points[dim:][~lifted]])
        bounds = j + 1  # index of the first bound row
        facets = np.vstack(
            [
                np.hstack([current, -np.ones((bounds, 1))]),
                np.hstack([np.eye(dim), np.zeros((dim, 1))]),
            ]
        )
        others = np.delete(np.arange(bounds + dim), j)
        subsets = combinations(range(len(others)), dim - 1)
        total = math.comb(len(others), dim - 1)
        found = []
        for first in range(0, total, CORNER_BLOCK):
            size = min(CORNER_BLOCK, total - first)
            picks = np.fromiter(
                chain.from_iterable(islice(subsets, size)), dtype=np.intp, count=size * (dim - 1)
            ).reshape(size, dim - 1)
            block = np.sort(np.column_stack([others[picks], np.full(size, j)]), axis=1)
            systems = np.empty((size, dim + 1, dim + 1))
            systems[:, 0] = simplex_row
            systems[:, 1:] = facets[block]
            scale = np.prod(np.linalg.norm(systems, axis=2), axis=1)
            full_rank = np.abs(np.linalg.det(systems)) > RANK_RTOL * scale
            block, systems = block[full_rank], systems[full_rank]
            columns = np.broadcast_to(rhs[:, None], (len(systems), dim + 1, 1))
            raw = np.linalg.solve(systems, columns)[..., 0]
            residual = np.max(np.abs(np.einsum("bij,bj->bi", systems, raw) - rhs), axis=1)
            w, u = raw[:, :dim].copy(), raw[:, dim]
            picked, slot = np.nonzero(block >= bounds)
            w[picked, block[picked, slot] - bounds] = 0.0
            ok = (
                (residual <= 1e-7)
                & (np.min(w, axis=1) >= -WEIGHT_MATCH_ATOL)
                & (np.abs(w.sum(axis=1) - 1.0) <= 1e-7)
            )
            w = np.clip(w[ok], 0.0, None)
            w /= w.sum(axis=1, keepdims=True)
            envelope = np.max(w @ current.T, axis=1)
            found.append(w[u[ok] >= envelope - WEIGHT_MATCH_ATOL])
        points = _append_distinct(points, np.vstack(found))
    return sorted((WeightVector(tuple(p)) for p in points), key=lambda wv: wv.weights)
