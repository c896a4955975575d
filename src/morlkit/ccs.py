"""Convex coverage set machinery.

Dominance tests, corner weights of the piecewise-linear upper surface,
optimistic value bounds, and the approximate optimistic linear support
loop (`aols`) that grows an epsilon-complete coverage set by querying a
value oracle at the most promising simplex weights.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Callable, Sequence

import numpy as np

from .core import (
    SIMPLEX_ATOL,
    ValueVector,
    WeightVector,
    scalarize,
    simplex_extrema,
)
from .lp import LpUnbounded, solve_lp
from .nets import write_text_atomic

log = logging.getLogger(__name__)

DUPLICATE_VALUE_ATOL = 1e-6
WEIGHT_MATCH_ATOL = 1e-9
# corner_weights solves this many facet subsets per batch, so its memory
# does not grow with the number of subsets.
CORNER_BLOCK = 4096
# A system counts as rank-deficient when |det| is below this fraction of
# the product of its row norms (the Hadamard bound on |det|).
RANK_RTOL = 1e-12

Oracle = Callable[[WeightVector], ValueVector]


@dataclass(frozen=True)
class PartialCcs:
    """Working set of candidate-undominated value vectors plus the
    (weight, scalar value) observations recorded when they were found."""

    vectors: tuple[ValueVector, ...]
    observations: tuple[tuple[WeightVector, float], ...]

    def __post_init__(self) -> None:
        vecs = tuple(self.vectors)
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                if _max_norm(vecs[a], vecs[b]) <= WEIGHT_MATCH_ATOL:
                    raise ValueError(f"vectors {a} and {b} coincide")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "observations", tuple(self.observations))


@dataclass(frozen=True)
class AolsIteration:
    """One pop of the weight queue: what was queried and how much
    relative improvement the queue still promises afterwards."""

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


class MarginalWeightQueue:
    """Max-priority queue of candidate weights; infinite priority first,
    FIFO among equal priorities."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, WeightVector, float]] = []
        self._counter = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, weight: WeightVector, priority: float, bound: float) -> None:
        heapq.heappush(self._heap, (-priority, self._counter, weight, bound))
        self._counter += 1

    def pop(self) -> tuple[WeightVector, float, float]:
        neg, _, weight, bound = heapq.heappop(self._heap)
        return weight, -neg, bound

    def peek_priority(self) -> tuple[float, float]:
        """(priority, bound) of the top entry."""
        neg, _, _, bound = self._heap[0]
        return -neg, bound

    def entries(self) -> list[tuple[float, float]]:
        """(priority, bound) for every queued weight, unordered."""
        return [(-neg, bound) for neg, _, _, bound in self._heap]

    def weights(self) -> list[WeightVector]:
        return [entry[2] for entry in self._heap]


def _max_norm(a: ValueVector, b: ValueVector) -> float:
    return float(np.max(np.abs(a.array - b.array)))


def _max_dist(points: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Max-norm distance from each row of points to point."""
    return np.max(np.abs(points - point), axis=1)


def scalarized_max(
    s: Sequence[ValueVector], w: WeightVector
) -> tuple[float, ValueVector]:
    """Best scalarized value over the set and one maximizer (lowest index wins ties)."""
    if not s:
        raise ValueError("scalarized_max needs a nonempty set")
    dots = [scalarize(w, v) for v in s]
    idx = int(np.argmax(dots))
    return dots[idx], s[idx]


def is_convex_undominated(
    v: ValueVector, s: Sequence[ValueVector], margin: float = 0.0
) -> bool:
    """True when some simplex weight makes v at least margin better than
    every member of s.

    Decided by maximizing the worst slack min_w' w.(v - v') over the simplex;
    exact ties (v on the convex upper boundary of s without strictly winning
    anywhere) count as dominated.
    """
    if not s:
        return True
    dim = v.dim
    for other in s:
        if other.dim != dim:
            raise ValueError("dimension mismatch in dominance test")
    # Variables: w_1..w_I, t_pos, t_neg with t = t_pos - t_neg.
    n = dim + 2
    c = np.zeros(n)
    c[dim] = 1.0
    c[dim + 1] = -1.0
    a_ub = []
    b_ub = []
    for other in s:
        row = np.zeros(n)
        row[:dim] = other.array - v.array
        row[dim] = 1.0
        row[dim + 1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq = np.zeros((1, n))
    a_eq[0, :dim] = 1.0
    _, best_slack = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[1.0])
    return best_slack > margin + WEIGHT_MATCH_ATOL


def corner_weights(s: Sequence[ValueVector]) -> list[WeightVector]:
    """Vertices of the upper surface max_V w.V over the simplex, sorted.

    The surface is the lower boundary of the polytope
    {(w, u) : w in simplex, u >= w.V for every V in s}, whose facet rows
    over (w, u) are [V, -1] (u = w.V) for each vector and [e_k, 0]
    (w_k = 0) for each bound. Every vertex solves the simplex row
    [1..1, 0] = 1 together with some dim of these n + dim rows, so all
    C(n + dim, dim) such systems are solved in batches. Rank-deficient
    systems are dropped before the solve; a solution is kept when it solves
    its system, lies on the simplex and its u reaches the envelope there.
    Simplex extrema are always included; points within WEIGHT_MATCH_ATOL
    of an earlier one are dropped.
    """
    if not s:
        raise ValueError("corner_weights needs a nonempty set")
    dim = s[0].dim
    # A common shift of every vector leaves the corners unchanged; removing
    # it keeps the rank test below about the gaps between vectors, not
    # their magnitude.
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
        # A stack of column vectors as b, which numpy 1.x and 2.x read alike.
        columns = np.broadcast_to(rhs[:, None], (len(systems), dim + 1, 1))
        raw = np.linalg.solve(systems, columns)[..., 0]
        residual = np.max(np.abs(np.einsum("bij,bj->bi", systems, raw) - rhs), axis=1)
        w, u = raw[:, :dim].copy(), raw[:, dim]
        # A bound row pins its weight to exactly zero, which the solve can
        # miss by round-off.
        picked, slot = np.nonzero(block >= len(s))
        w[picked, block[picked, slot] - len(s)] = 0.0
        # Comparisons with NaN are false, so a non-finite solution fails here.
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
        if not keep or _max_dist(points[keep], point).min() > WEIGHT_MATCH_ATOL:
            keep.append(k)
    return sorted((WeightVector(tuple(points[k])) for k in keep), key=lambda wv: wv.weights)


def optimistic_bound(
    wv: Sequence[tuple[WeightVector, float]], w: WeightVector, epsilon: float
) -> float:
    """Largest scalarized value at w consistent with every recorded
    observation being epsilon-accurate.

    Solves max w.u subject to w'.u <= v' + epsilon for all (w', v').
    The observation list must cover all simplex extrema or the program
    is unbounded (raised as ValueError).
    """
    if not wv:
        raise ValueError("optimistic_bound needs at least one observation")
    dim = w.dim
    # u is free: u = p - q with p, q >= 0.
    c = np.concatenate([w.array, -w.array])
    a_ub = []
    b_ub = []
    for w_obs, v_obs in wv:
        if w_obs.dim != dim:
            raise ValueError("observation dimension mismatch")
        a_ub.append(np.concatenate([w_obs.array, -w_obs.array]))
        b_ub.append(float(v_obs) + epsilon)
    try:
        _, value = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
    except LpUnbounded as exc:
        raise ValueError(
            "optimistic bound is unbounded; observations must cover all simplex extrema"
        ) from exc
    return value


def relative_improvement(v_bound: float, v_star: float) -> float:
    """Relative gap (v_bound - v_star) / v_bound between an optimistic
    bound and the current surface value."""
    if v_bound == 0.0:
        raise ZeroDivisionError("relative improvement undefined for zero bound")
    return (v_bound - v_star) / v_bound


def _remaining_delta_r(queue: MarginalWeightQueue) -> float:
    """Largest relative gap still promised by the queue.

    The queue itself is ordered by the absolute gap (the selection rule);
    the relative form used for convergence reporting maximizes over all
    queued entries since the two orders can differ.
    """
    best = 0.0
    for priority, bound in queue.entries():
        if math.isinf(priority):
            return math.inf
        try:
            rel = relative_improvement(bound, bound - priority)
        except ZeroDivisionError:
            log.warning("zero optimistic bound; logging absolute gap instead")
            rel = priority
        best = max(best, rel)
    return best


def aols(
    oracle: Oracle,
    objective_count: int,
    epsilon: float,
    max_iterations: int = 10_000,
) -> AolsResult:
    """Approximate optimistic linear support.

    Seeds a priority queue with all simplex extrema at infinite priority,
    then repeatedly pops the weight with the largest optimistic improvement
    bound, queries the oracle there, and, whenever a new value vector is
    found, recomputes corner weights and pushes the unexplored ones whose
    optimistic gap exceeds epsilon. Stops when the queue empties or the
    iteration cap is hit.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if objective_count < 1:
        raise ValueError("objective_count must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    queue = MarginalWeightQueue()
    for e in simplex_extrema(objective_count):
        queue.push(e, math.inf, math.inf)

    s: list[ValueVector] = []
    wv: list[tuple[WeightVector, float]] = []
    explored: list[WeightVector] = []
    history: list[AolsIteration] = []
    cache: dict[tuple[float, ...], ValueVector] = {}
    pending_extrema = objective_count
    iterations = 0
    cap_hit = False

    def query(weight: WeightVector) -> ValueVector:
        key = weight.weights
        if key not in cache:
            value = oracle(weight)
            if value.dim != objective_count:
                raise ValueError(
                    f"oracle returned dimension {value.dim}, expected {objective_count}"
                )
            cache[key] = value
        return cache[key]

    while len(queue) > 0:
        if iterations >= max_iterations:
            cap_hit = True
            break
        weight, priority, _ = queue.pop()
        iterations += 1
        value = query(weight)
        wv.append((weight, scalarize(weight, value)))
        explored.append(weight)
        seeding = pending_extrema > 0
        if math.isinf(priority):
            pending_extrema -= 1
        seeded_now = seeding and pending_extrema == 0

        inserted = False
        if all(_max_norm(value, member) > DUPLICATE_VALUE_ATOL for member in s):
            s.append(value)
            inserted = True

        if s and pending_extrema == 0 and (inserted or seeded_now):
            # Corners are pairwise farther apart than WEIGHT_MATCH_ATOL, so a
            # corner pushed here never makes a later one count as seen.
            seen = np.array([w.weights for w in explored + queue.weights()])
            for corner in corner_weights(s):
                if _max_dist(seen, corner.array).min() <= WEIGHT_MATCH_ATOL:
                    continue
                surface, _ = scalarized_max(s, corner)
                bound = optimistic_bound(wv, corner, epsilon)
                gap = bound - surface
                if gap > epsilon:
                    queue.push(corner, gap, bound)

        history.append(
            AolsIteration(
                index=iterations,
                weight=weight,
                inserted=inserted,
                remaining_delta_r=_remaining_delta_r(queue),
            )
        )

    delta_max = 0.0
    if len(queue) > 0:
        delta_max, _ = queue.peek_priority()

    return AolsResult(
        ccs=PartialCcs(tuple(s), tuple(wv)),
        explored_weights=tuple(explored),
        delta_max=delta_max,
        history=tuple(history),
        hit_iteration_cap=cap_hit,
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
