"""Convex coverage set machinery.

Dominance tests, corner weights of the piecewise-linear upper surface,
optimistic value bounds, the approximate optimistic linear support loop
(`aols`) that grows an epsilon-complete coverage set by querying a value
oracle at the most promising simplex weights, and the certificate
(`coverage_gap`) that checks a finished set against an oracle at its
corner weights.

One rule serves each coverage-set decision in the package, in `aols` and
in training alike. Closeness: two vectors within DUPLICATE_VALUE_ATOL in
every component are one (`is_duplicate`); no `PartialCcs` holds both.
Membership: a vector belongs when it beats all the others at some weight
(`pruned`, decided at corner weights with no linear program), so `aols`
drops a vector that only ties another, such as the cheaper of two
treasures at the same path cost, which tie at the weight that counts only
the cost. Relative gap:
(bound - surface) / bound for a positive bound, and the absolute gap
bound - surface otherwise (`relative_improvement`).

Corner weights grow one vector at a time, as in the incremental
corner-weight update of optimistic linear support (Roijers, Whiteson &
Oliehoek, JAIR 2015): a new vector removes the corners where it lies
above the surface, and the new corners all lie on its facet. They are found
by the double-description step (Fukuda & Prodon, 1996): each lies on an
edge of the old surface from a removed corner to a kept one, where the new
vector crosses it, so no linear system is solved (`_add_facets`). A
crossing joins unless it lies within WEIGHT_MATCH_ATOL of a kept corner.
Only kept corners that lie almost on the new facet can be that close,
mostly the crossed edges' kept ends, so each crossing is compared with
those few corners, not with every kept corner. `aols` keeps its corner set
between insertions and folds in each new vector; the corners it has yet to
query wait in one list, in the order they were found.
`_add_facets` copies the corners it keeps bit for bit, so `aols` tells
corners apart by their exact rows, with no distance search: a pending
corner stays while its row does, and only the corners a fold creates are
bounded. The optimistic bound at a corner is the lower convex hull of the
explored points (weight, scalarized answer + epsilon) there, the dual of
the LP in `optimistic_bound`; `aols` folds the points into that hull, in
the order they were queried, only when a corner fold is about to read it,
and bounds each fold's new corners with one matrix product, solving no LP.
Its per-query bookkeeping builds no array anew: the explored points and
their heights fill buffers that double when full, the members' values are
one array that grows on each insertion (the duplicate test reads it with
the rule of `is_duplicate`), and the set of corner rows carries over from
one fold to the next, so the corners a fold creates are its new rows.

The closeness rules are absolute, so the results scale with the rewards
only over a range of scales. Scaling every reward of the 5-state, 3-action,
3-objective problems of `envs.random_tabular_momdp` (seeds 0-4) by a c
that is not a power of two scales the `aols` set by c (relative error below
1e-12, same member count) for c from 3e-5 to 3e6 with an oracle that
picks the best of all policies. Below that, DUPLICATE_VALUE_ATOL merges
distinct vectors; above, round-off in values of that size exceeds
WEIGHT_MATCH_ATOL. With `envs.value_iteration` as the oracle the same holds
from 2e-5 to 2.2e6 (checked at ten scales from 2e-5 to 3e3 and nine from
4e3 to 2.2e6); from 2.5e6 up members are lost to that round-off, while the
planner, whose Bellman residual bound scales with its values, still solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .core import ValueVector, WeightVector, scalarize, simplex_extrema
from .lp import LpUnbounded, solve_lp
from .nets import write_text_atomic

DUPLICATE_VALUE_ATOL = 1e-6
WEIGHT_MATCH_ATOL = 1e-9
# A system counts as rank-deficient when |det| is below this fraction of
# the product of its row norms (the Hadamard bound on |det|).
RANK_RTOL = 1e-12

Oracle = Callable[[WeightVector], ValueVector]


@dataclass(frozen=True)
class PartialCcs:
    """Working set of candidate-undominated value vectors, none a duplicate
    (`is_duplicate`) of an earlier one."""

    vectors: tuple[ValueVector, ...]

    def __post_init__(self) -> None:
        vecs = tuple(self.vectors)
        for k, v in enumerate(vecs):
            if is_duplicate(v, vecs[:k]):
                raise ValueError(f"vector {k} duplicates an earlier one")
        object.__setattr__(self, "vectors", vecs)


@dataclass(frozen=True)
class AolsIteration:
    """One query of `aols`: the weight asked and the largest gap
    (`relative_improvement`) its pending corners still promise afterwards."""

    index: int
    weight: WeightVector
    inserted: bool
    remaining_delta_r: float


@dataclass(frozen=True)
class AolsResult:
    ccs: PartialCcs
    explored_weights: tuple[WeightVector, ...]
    delta_max: float
    history: tuple[AolsIteration, ...]
    hit_iteration_cap: bool


def scalarized_max(s: Sequence[ValueVector], w: WeightVector) -> float:
    """Best scalarized value over the set, max_V w.V."""
    if not s:
        raise ValueError("scalarized_max needs a nonempty set")
    return max(scalarize(w, v) for v in s)


def is_convex_undominated(v: ValueVector, s: Sequence[ValueVector]) -> bool:
    """True when some simplex weight makes v more than WEIGHT_MATCH_ATOL
    better than every member of s. For a margin m, test v - m*1: simplex
    weights sum to one, so w.(v - m*1) = w.v - m.

    The slack w.v - max_V w.V is linear on each cell of the upper surface
    of s, so its largest value lies at a corner weight of s, where it is
    read. Exact ties (v on the convex upper boundary of s without strictly
    winning anywhere) count as dominated.
    """
    if not s:
        return True
    vals = _stacked(v, s)
    corners = _add_facets(np.eye(v.dim), _shifted(vals), 0)
    slack = np.min(corners @ (v.array - vals).T, axis=1)
    return float(slack.max()) > WEIGHT_MATCH_ATOL


def is_duplicate(v: ValueVector, s: Sequence[ValueVector]) -> bool:
    """True when some member of s is within DUPLICATE_VALUE_ATOL of v in
    every component."""
    return bool(s) and _duplicates_row(v.array, _stacked(v, s))


def _duplicates_row(row: np.ndarray, vals: np.ndarray) -> bool:
    """`is_duplicate` on arrays: some row of vals lies within
    DUPLICATE_VALUE_ATOL of row in every component."""
    return len(vals) > 0 and bool(np.abs(vals - row).max(axis=1).min() <= DUPLICATE_VALUE_ATOL)


def _stacked(v: ValueVector, s: Sequence[ValueVector]) -> np.ndarray:
    """The members of a nonempty s as rows, which must have v's dimension
    (numpy would broadcast a length-1 v against any of them)."""
    vals = np.array([other.values for other in s])
    if vals.shape[1] != v.dim:
        raise ValueError(f"dimension mismatch: {v.dim} against {vals.shape[1]}")
    return vals


def pruned(vectors: Sequence[ValueVector]) -> list[ValueVector]:
    """The members, in order, that beat all the others at some weight
    (`is_convex_undominated` against the rest of the set), read at the
    set's corner weights (`_members`). A nonempty set keeps at least one."""
    vectors = list(vectors)
    if not vectors:
        return []
    vals = np.array([v.values for v in vectors])
    return _members(vectors, _add_facets(np.eye(vals.shape[1]), _shifted(vals), 0))


def _members(vectors: list[ValueVector], corners: np.ndarray) -> list[ValueVector]:
    """`pruned` of a nonempty set, given the corners of its upper surface.

    A member is kept when it beats every other by more than
    WEIGHT_MATCH_ATOL at the centroid of the corners where it meets the
    surface, a witness weight inside its cell when it wins on a full cell.
    Any other member is decided by `is_convex_undominated`. Other simplex
    points in place of the corners give the same answer, with more of
    those calls. When no member is kept, the best member at each simplex
    extremum e_k is: the largest k-th value, ties broken by the other
    values in index order.
    """
    vals = np.array([v.values for v in vectors])
    dots = corners @ vals.T
    meets = (dots >= dots.max(axis=1, keepdims=True) - WEIGHT_MATCH_ATOL).astype(float)
    # A member that meets the surface nowhere gets the zero weight, and no win.
    at = vals @ (corners.T @ meets / np.maximum(meets.sum(axis=0), 1.0))
    rivals = np.where(np.eye(len(vals), dtype=bool), -np.inf, at).max(axis=0)
    wins = np.diag(at) > rivals + WEIGHT_MATCH_ATOL
    kept = [
        v
        for k, v in enumerate(vectors)
        if wins[k] or is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
    ]
    if kept:
        return kept
    # No member wins by more than WEIGHT_MATCH_ATOL anywhere, as on a dense
    # arc of small vectors.
    values = [v.values for v in vectors]
    best = {
        max(range(len(values)), key=lambda i: (values[i][k],) + values[i][:k] + values[i][k + 1 :])
        for k in range(len(values[0]))
    }
    return [v for i, v in enumerate(vectors) if i in best]


def corner_weights(s: Sequence[ValueVector]) -> list[WeightVector]:
    """Vertices of the upper surface max_V w.V over the simplex, sorted.

    Built one vector at a time by `_add_facets`, which finds each new
    corner where the new vector crosses an edge of the surface so far;
    simplex extrema are always included, and no two corners are within
    WEIGHT_MATCH_ATOL of each other.
    """
    if not s:
        raise ValueError("corner_weights needs a nonempty set")
    vals = np.array([v.values for v in s])
    points = _add_facets(np.eye(s[0].dim), _shifted(vals), 0)
    return [WeightVector(tuple(p)) for p in _sorted_rows(points)]


def coverage_gap(s: Sequence[ValueVector], oracle: Oracle) -> tuple[float, WeightVector]:
    """Largest amount by which the oracle's value beats the surface of s,
    max_w [w.oracle(w) - max_V w.V], and a weight where it does.

    Only the corner weights of s need be queried. With an exact oracle,
    w -> w.oracle(w) is the optimal scalarized value, a maximum of linear
    functions of w and so convex. The surface of s is linear on each cell
    of the simplex that one vector of s wins, so the gap is convex on each
    cell and peaks at a vertex of one, that is, at a corner weight
    (Roijers, Whiteson & Oliehoek, JAIR 2015). A gap of at most epsilon
    makes s an epsilon-coverage set; ties go to the first corner in
    `corner_weights` order.
    """
    gaps = [
        (scalarize(w, oracle(w)) - scalarized_max(s, w), w) for w in corner_weights(s)
    ]
    return max(gaps, key=lambda item: item[0])


def _shifted(vals: np.ndarray) -> np.ndarray:
    """The vectors less their componentwise maximum. A common shift leaves
    the corners unchanged; removing it keeps the lift and tie tests in
    `_add_facets` about the gaps between vectors, not their magnitude."""
    return vals - vals.max(axis=0)


def _sorted_rows(points: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, as tuples of floats sort."""
    return points[np.lexsort(points.T[::-1])]


def _add_facets(points: np.ndarray, vals: np.ndarray, start: int) -> np.ndarray:
    """Fold vectors vals[start:] into the corner set of vals[:start], by the
    double-description step (Fukuda & Prodon, "Double Description Method
    Revisited", 1996).

    points holds the corners of the upper surface of vals[:start] (for
    start = 0, only the simplex extrema), extrema first. The surface is the
    lower boundary of the polytope {(w, u) : w in simplex, u >= w.V for
    every V}, whose facet rows are u = w.V for each vector and w_k = 0 for
    each bound. A corner's active rows are the vectors within
    WEIGHT_MATCH_ATOL of the surface there and the bounds its weight meets
    exactly, read afresh from vals at each step. Vector j lifts the corners
    where its lift g = w.V_j - surface exceeds WEIGHT_MATCH_ATOL; they go,
    except the simplex extrema, which are corners of every set. Each new
    corner lies on an edge from a lifted corner a to a kept corner b: the
    two share at least dim - 1 active rows and no third corner has all of
    them (the combinatorial adjacency test). The edge crosses vector j's
    facet at a + g(a) / (g(a) - g(b)) (b - a), with g(b) taken as 0 where it
    is positive, so no linear system is solved; a weight that is +0.0 at
    both ends stays exactly +0.0. A new corner joins when it is farther
    than WEIGHT_MATCH_ATOL from every corner kept before it.

    That search reads only the kept corners where g >= -reach, with
    reach = 4 WEIGHT_MATCH_ATOL max_i |V_i|_1. g = min_i w.(V_j - V_i) is
    concave, so g >= 0 at a crossing, where its interpolation between the
    edge's ends is 0 (or g(b) > 0). It changes by at most
    max_i |V_j - V_i|_1 <= 2 max_i |V_i|_1 per unit of max-norm distance,
    so a corner within WEIGHT_MATCH_ATOL of a crossing has g >= -reach / 2;
    the other half covers round-off. An edge holds no corner but its ends,
    so the corners searched are mostly the crossed edges' kept ends. Where
    gaps are near WEIGHT_MATCH_ATOL, an edge read with that tolerance can
    also pass that close to a third corner, which the search finds too.
    """
    dim = points.shape[1]
    reach = 4.0 * WEIGHT_MATCH_ATOL * np.abs(vals).sum(axis=1).max(initial=0.0)
    for j in range(max(start, 1), len(vals)):
        dots = points @ vals[: j + 1].T
        surface = dots[:, :j].max(axis=1)
        lift = dots[:, j] - surface
        lifted = lift > WEIGHT_MATCH_ATOL
        if not lifted.any():
            continue
        keep = ~lifted
        keep[:dim] = True
        tied = dots[:, :j] >= surface[:, None] - WEIGHT_MATCH_ATOL
        active = np.hstack([tied, points == 0.0]).astype(float)
        up, down = np.flatnonzero(lifted), np.flatnonzero(~lifted)
        a, b = np.nonzero(active[up] @ active[down].T >= dim - 1)
        a, b = up[a], down[b]
        shared = active[a] * active[b]
        # A pair is an edge when only its two ends hold every shared row.
        holders = shared @ active.T == shared.sum(axis=1, keepdims=True)
        edge = holders.sum(axis=1) == 2
        a, b = a[edge], b[edge]
        t = lift[a] / (lift[a] - np.minimum(lift[b], 0.0))
        crossed = points[a] + t[:, None] * (points[b] - points[a])
        # Only kept corners within reach of vector j's facet can lie within
        # WEIGHT_MATCH_ATOL of a crossing.
        near = points[keep & (lift >= -reach)]
        crossed = crossed[_nearest_gap(crossed, near) > WEIGHT_MATCH_ATOL]
        points = np.vstack([points[keep], _distinct(crossed)])
    return points


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The rows, in order, each farther than WEIGHT_MATCH_ATOL from every
    row kept before it."""
    close = np.abs(rows[:, None] - rows[None]).max(axis=2) <= WEIGHT_MATCH_ATOL
    if close.sum() == len(rows):  # each row is close only to itself
        return rows
    close = np.triu(close, 1)
    keep = np.ones(len(rows), dtype=bool)
    for k in np.flatnonzero(close.any(axis=1)):
        if keep[k]:
            keep &= ~close[k]
    return rows[keep]


def _nearest_gap(rows: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """For each row, its max-norm distance to the nearest pool row."""
    return np.abs(rows[:, None] - pool[None]).max(axis=2).min(axis=1, initial=np.inf)


def _fold_lower_hull(
    facets: np.ndarray, planes: np.ndarray, points: np.ndarray, heights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the last point, (points[-1], heights[-1]), into the lower convex
    hull of the points before it, by beneath-beyond.

    points are simplex weights, and the hull is the largest convex function
    on the simplex at or below every height. facets[k] holds, in increasing
    order, the indices of the dim points that span facet k, and planes[k]
    the u whose w.u is the facet's height at w, so the hull at w is
    max_k planes[k].w: the value of `optimistic_bound`'s program, by LP
    duality, when the points include every simplex extremum. The facets
    whose plane lies above the new point by more than WEIGHT_MATCH_ATOL go.
    Each ridge of just one of them, one shared with a kept facet or on the
    simplex boundary, joins the new point in a new facet; rank-deficient
    joins (RANK_RTOL) are skipped.
    """
    new = len(points) - 1
    above = planes @ points[new] > heights[new] + WEIGHT_MATCH_ATOL
    if not above.any():
        return facets, planes
    dim = points.shape[1]
    ridges = facets[above][:, _drop_one(dim)].reshape(-1, dim - 1)
    # Two facets share a ridge at most, and equal ridges are neighbours once
    # the rows sort lexicographically (no index key, which could overflow).
    ridges = ridges[np.lexsort(ridges.T[::-1])]
    repeat = (ridges[1:] == ridges[:-1]).all(axis=1)
    horizon = np.ones(len(ridges), dtype=bool)
    horizon[1:] &= ~repeat
    horizon[:-1] &= ~repeat
    # The new point has the largest index, so it comes last.
    joined = np.empty((int(horizon.sum()), dim), dtype=ridges.dtype)
    joined[:, :-1] = ridges[horizon]
    joined[:, -1] = new
    systems = points[joined]
    # The row norms, as np.linalg.norm computes them, without its overhead.
    scale = np.sqrt((systems * systems).sum(axis=2)).prod(axis=1)
    joined = joined[np.abs(np.linalg.det(systems)) > RANK_RTOL * scale]
    fresh = np.linalg.solve(points[joined], heights[joined][..., None])[..., 0]
    return np.concatenate([facets[~above], joined]), np.concatenate([planes[~above], fresh])


@cache
def _drop_one(dim: int) -> np.ndarray:
    """Row k lists the facet slots other than k, in increasing order, so
    each ridge keeps its indices in increasing order. Read-only."""
    slots = np.arange(dim - 1)
    table = slots + (slots >= np.arange(dim)[:, None])
    table.flags.writeable = False
    return table


def optimistic_bound(
    wv: Sequence[tuple[WeightVector, float]], w: WeightVector, epsilon: float
) -> float:
    """Largest scalarized value at w consistent with every recorded
    observation being epsilon-accurate.

    Solves max w.u subject to w'.u <= v' + epsilon for all (w', v').
    The program is bounded exactly when w lies in the convex hull of the
    observed weights; otherwise it is unbounded (raised as ValueError).
    """
    if not wv:
        raise ValueError("optimistic_bound needs at least one observation")
    dim = w.dim
    # u is free: u = p - q with p, q >= 0.
    if any(w_obs.dim != dim for w_obs, _ in wv):
        raise ValueError("observation dimension mismatch")
    c = np.concatenate([w.array, -w.array])
    weights = np.array([w_obs.weights for w_obs, _ in wv])
    a_ub = np.hstack([weights, -weights])
    b_ub = np.array([v_obs for _, v_obs in wv], dtype=float) + epsilon
    try:
        _, value = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
    except LpUnbounded as exc:
        raise ValueError(
            "optimistic bound is unbounded; w must lie in the convex hull of the observed weights"
        ) from exc
    return value


def relative_improvement(v_bound: float, v_star: float) -> float:
    """Gap between an optimistic bound and the current surface value:
    relative, (v_bound - v_star) / v_bound, when the bound is positive, and
    absolute, v_bound - v_star, otherwise, where a ratio would flip sign or
    divide by zero."""
    if v_bound > 0.0:
        return (v_bound - v_star) / v_bound
    return v_bound - v_star


def aols(
    oracle: Oracle,
    objective_count: int,
    epsilon: float,
    max_iterations: int = 10_000,
) -> AolsResult:
    """Approximate optimistic linear support.

    Starts with all simplex extrema pending at infinite gap, then
    repeatedly queries the oracle at the pending weight with the largest
    optimistic gap, the earliest added among equal gaps. An answer that
    duplicates no member (`is_duplicate`) joins the set and is folded into
    the kept corner weights. A pending weight is a corner's exact row, and
    `_add_facets` copies the rows it keeps, so a pending weight stays
    exactly while its row does. Only the corners born in the fold are
    bounded: every other corner is explored, pending, or had a gap of at
    most epsilon when born, which only shrinks as the bound falls and the
    surface rises. A born corner whose optimistic gap exceeds epsilon, and
    which lies farther than WEIGHT_MATCH_ATOL from every explored weight,
    joins the pending list with that gap and its relative form
    (`relative_improvement`), computed once. Its bound is the height there
    of the lower convex hull of the explored points (weight, scalarized
    answer + epsilon) (`_fold_lower_hull`), into which the answers are
    folded, in order, just before the corner fold that reads it. Each
    iteration records the largest relative gap still pending, since the
    two gaps can order corners differently. Stops when none is pending or
    the iteration cap is hit, the cap counting as hit when corners are
    still pending, and returns the members that beat all the others at
    some weight (`pruned`); the explored weights are those of
    the history.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if objective_count < 1:
        raise ValueError("objective_count must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    # (gap, relative gap, weight) of every weight still to query, in the order added.
    pending = [(math.inf, math.inf, e) for e in simplex_extrema(objective_count)]

    s: list[ValueVector] = []
    vals = np.empty((0, objective_count))  # the members' values, as rows
    corners, folded = np.eye(objective_count), 0  # corner set of s[:folded]
    rows = set(map(tuple, corners.tolist()))  # the corners' exact rows
    # The explored weights and their scalarized answers plus epsilon are the
    # first n rows of buffers that double when full.
    points, heights, n = np.empty((objective_count, objective_count)), np.empty(objective_count), 0
    facets, planes, hulled = None, None, 0  # lower hull of the first `hulled` points
    history: list[AolsIteration] = []

    while pending and len(history) < max_iterations:
        # No weight is queried twice: each added corner is farther than
        # WEIGHT_MATCH_ATOL from every explored weight (checked below) and
        # every corner `_add_facets` kept, pending ones among them.
        *_, weight = pending.pop(max(range(len(pending)), key=lambda k: pending[k][0]))
        value = oracle(weight)
        if value.dim != objective_count:
            raise ValueError(f"oracle returned dimension {value.dim}, expected {objective_count}")
        if n == len(heights):
            points = np.concatenate([points, np.empty_like(points)])
            heights = np.concatenate([heights, np.empty_like(heights)])
        answer = value.array
        points[n] = weight.array
        heights[n] = float(np.dot(points[n], answer)) + epsilon
        n += 1
        inserted = not _duplicates_row(answer, vals)
        if inserted:
            s.append(value)
            vals = np.vstack([vals, answer])

        # The extrema, pending at infinite gap, are the first queries, in
        # index order. Once all are explored the hull is their one facet and
        # the corners fold; after that every insertion folds the corners.
        # Only a corner fold reads the hull, so the answers since the last
        # one join it then, in the order they came: the hull is the one an
        # eager fold would build, and answers after the last insertion
        # never join.
        if n == objective_count:
            facets, planes, hulled = np.arange(n)[None], heights[None, :n].copy(), n
        if n == objective_count or (inserted and n > objective_count):
            while hulled < n:
                hulled += 1
                facets, planes = _fold_lower_hull(facets, planes, points[:hulled], heights[:hulled])
            corners = _add_facets(corners, _shifted(vals), folded)
            folded = len(s)
            # `_add_facets` copies the corners it keeps bit for bit, and a
            # pending weight is a corner's exact row: it stays while that row
            # does. A corner lifted off the surface is not worth a query.
            old, rows = rows, set(map(tuple, corners.tolist()))
            pending = [p for p in pending if p[2].weights in rows]
            # Only corners born here can be worth a query: any other was
            # bounded when born, and its gap only shrinks since. They go in
            # `_sorted_rows` order, which is how tuples sort.
            born = np.array(sorted(rows - old)).reshape(-1, objective_count)
            fresh = born[_nearest_gap(born, points[:n]) > WEIGHT_MATCH_ATOL]
            bounds = (fresh @ planes.T).max(axis=1)
            gaps = bounds - (fresh @ vals.T).max(axis=1)
            for row, bound, gap in zip(fresh.tolist(), bounds.tolist(), gaps.tolist()):
                if gap > epsilon:
                    r = relative_improvement(bound, bound - gap)
                    pending.append((gap, r, WeightVector(tuple(row))))

        remaining_delta_r = max((r for _, r, _ in pending), default=0.0)
        history.append(AolsIteration(n, weight, inserted, remaining_delta_r))

    # A vector that only ties the others leaves the surface, and so the
    # corners and bounds above, as they are; it is dropped once, here. A cap
    # hit before every extremum was explored leaves members unfolded, which
    # `_members` allows.
    return AolsResult(
        ccs=PartialCcs(tuple(_members(s, corners))),
        explored_weights=tuple(it.weight for it in history),
        delta_max=max((gap for gap, *_ in pending), default=0.0),
        history=tuple(history),
        hit_iteration_cap=bool(pending),
    )


def write_history_csv(result: AolsResult, path) -> None:
    """Atomically dump the per-iteration log as iteration, weight components, delta_r."""
    lines = []
    if result.history:
        dim = result.history[0].weight.dim
        header = ["iteration"] + [f"w{k}" for k in range(dim)] + ["delta_r"]
        lines.append(",".join(header))
        for item in result.history:
            row = [str(item.index)]
            row += [repr(w) for w in item.weight.weights]
            row.append(repr(item.remaining_delta_r))
            lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")
