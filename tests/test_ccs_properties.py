"""Metamorphic properties of the coverage-set core (Roijers, Whiteson &
Oliehoek, JAIR 2015): relabelling the objectives relabels every output,
scaling every reward by a power of two scales the coverage set by the same
factor, and a vector that a member beats in every component changes no
membership. `pruned` keeps no member that another member weakly
dominates, and no two corner weights lie within WEIGHT_MATCH_ATOL of each
other, even when gaps are below that tolerance. The lower
hull that bounds `aols`'s corners gives the value of the LP in
`optimistic_bound`, its dual.

Sets are compared as sets, each element within 1e-9 relative (absolute
below magnitude 1). Value sets are small integer vectors, so that a tie is
an exact tie and no decision rests on round-off; the hull is also checked
on float values, where it is compared with the LP within 1e-9.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morlkit import ccs
from morlkit.ccs import (
    WEIGHT_MATCH_ATOL,
    aols,
    corner_weights,
    coverage_gap,
    optimistic_bound,
    pruned,
)
from morlkit.core import ValueVector, WeightVector, scalarize
from morlkit.envs import TabularMomdp, random_tabular_momdp, value_iteration

SMALL = settings(max_examples=40, deadline=None)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def same_set(xs, ys) -> bool:
    """Every row of each list matches a row of the other within `close`."""

    def covered(rows, pool):
        return all(any(all(map(close, row, other)) for other in pool) for row in rows)

    xs, ys = [tuple(x) for x in xs], [tuple(y) for y in ys]
    return len(xs) == len(ys) and covered(xs, ys) and covered(ys, xs)


def permuted(values, perm) -> tuple[float, ...]:
    """Objective j of the relabelled problem is objective perm[j]."""
    return tuple(values[p] for p in perm)


@st.composite
def integer_sets(draw):
    """(vectors, objective permutation): 1-5 integer vectors of 2 or 3
    objectives."""
    dim = draw(st.integers(2, 3))
    row = st.tuples(*[st.integers(-8, 8)] * dim)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    return [ValueVector(tuple(map(float, r))) for r in rows], draw(st.permutations(range(dim)))


@st.composite
def random_problems(draw):
    """A random 3- or 4-state problem with 2 or 3 objectives."""
    seed = draw(st.integers(0, 2**32 - 1))
    shape = (draw(st.integers(3, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    return random_tabular_momdp(np.random.default_rng(seed), *shape, discount=0.8)


def with_rewards(m: TabularMomdp, rewards: np.ndarray) -> TabularMomdp:
    return TabularMomdp(m.transitions, rewards, m.initial, m.discount, m.terminal)


def aols_set(m: TabularMomdp, epsilon: float) -> list[tuple[float, ...]]:
    result = aols(lambda w: value_iteration(m, w)[1], m.objective_count, epsilon)
    return [v.values for v in result.ccs.vectors]


def relabel(vectors, perm) -> list[ValueVector]:
    return [ValueVector(permuted(v.values, perm)) for v in vectors]


@SMALL
@given(integer_sets())
def test_corner_weights_follow_the_objectives(case):
    vectors, perm = case
    expected = [permuted(w.weights, perm) for w in corner_weights(vectors)]
    assert same_set([w.weights for w in corner_weights(relabel(vectors, perm))], expected)


@SMALL
@given(integer_sets())
def test_pruned_follows_the_objectives(case):
    vectors, perm = case
    expected = [permuted(v.values, perm) for v in pruned(vectors)]
    assert same_set([v.values for v in pruned(relabel(vectors, perm))], expected)


@SMALL
@given(integer_sets(), st.data())
def test_coverage_gap_follows_the_objectives(case, data):
    reference, perm = case
    picks = data.draw(st.sets(st.integers(0, len(reference) - 1), min_size=1))
    subset = [reference[k] for k in sorted(picks)]

    def best_of(vectors):
        return lambda w: max(vectors, key=lambda v: scalarize(w, v))

    gap, _ = coverage_gap(subset, best_of(reference))
    relabelled_gap, _ = coverage_gap(relabel(subset, perm), best_of(relabel(reference, perm)))
    assert close(relabelled_gap, gap)


@SMALL
@given(random_problems(), st.data())
def test_aols_set_follows_the_objectives(m, data):
    perm = data.draw(st.permutations(range(m.objective_count)))
    expected = [permuted(v, perm) for v in aols_set(m, 1e-6)]
    assert same_set(aols_set(with_rewards(m, m.rewards[:, :, perm]), 1e-6), expected)


@SMALL
@given(random_problems(), st.integers(-3, 3))
def test_aols_set_scales_with_the_rewards(m, power):
    # Powers of two scale every floating-point operation exactly.
    c = 2.0**power
    expected = [tuple(c * x for x in v) for v in aols_set(m, 1e-6)]
    assert same_set(aols_set(with_rewards(m, c * m.rewards), c * 1e-6), expected)


@SMALL
@given(integer_sets(), st.data())
def test_beaten_vector_leaves_pruned_unchanged(case, data):
    vectors, _ = case
    member = data.draw(st.sampled_from(vectors))
    less = data.draw(st.lists(st.floats(1e-6, 4.0), min_size=member.dim, max_size=member.dim))
    beaten = ValueVector(tuple(v - d for v, d in zip(member.values, less)))
    at = data.draw(st.integers(0, len(vectors)))
    grown = vectors[:at] + [beaten] + vectors[at:]
    assert same_set([v.values for v in pruned(grown)], [v.values for v in pruned(vectors)])


def test_beaten_vector_near_a_tie_leaves_pruned_unchanged():
    # A case the property above found: with the beaten vector added, the
    # simplex tableau reported a worst slack of 1.4e-9 for (-2, -2, 2),
    # which (0, 0, 2) ties at weight (0, 0, 1).
    vectors = [ValueVector((1.0, 0.0, 0.0)), ValueVector((-2.0, -2.0, 2.0)), ValueVector((0.0, 0.0, 2.0))]
    grown = [ValueVector((1.0 - 1e-6, -1.0, -1.0))] + vectors
    assert pruned(grown) == pruned(vectors) == [vectors[0], vectors[2]]


def value_set(*rows) -> list[ValueVector]:
    return [ValueVector(tuple(map(float, r))) for r in rows]


@st.composite
def tie_heavy_sets(draw):
    """1-8 distinct vectors of 2-5 objectives: small integers, where ties
    abound, or small integers moved by gaps below WEIGHT_MATCH_ATOL."""
    dim = draw(st.integers(2, 5))
    number = draw(
        st.sampled_from(
            [
                st.integers(0, 2).map(float),
                st.tuples(st.integers(0, 1), st.sampled_from([0.0, 1e-10, 5e-10])).map(sum),
            ]
        )
    )
    rows = draw(st.lists(st.tuples(*[number] * dim), min_size=1, max_size=8, unique=True))
    return [ValueVector(r) for r in rows]


def weakly_dominated(v: ValueVector, vectors) -> bool:
    """Some other member is at least v in every component."""
    return any(u != v and all(a >= b for a, b in zip(u.values, v.values)) for u in vectors)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_sets())
@example(value_set((0, 0, 0), (0, 1e-10, 0), (0, 0, 1e-10)))
def test_pruned_keeps_no_weakly_dominated_member(vectors):
    kept = pruned(vectors)
    assert kept and not any(weakly_dominated(v, vectors) for v in kept)


# (5e-8, -100) lifts the extremum e_0 by 5e-8 and crosses the edge to e_1
# 5e-10 from e_0, which stays a corner.
LIFTED_EXTREMUM = value_set((0, 0), (5e-8, -100))
# A crossing lands 9e-10 from (1 - 1.2e-9, 6e-10, 6e-10, 0), which is not
# an end of its edge: checking each crossing against its own edge's ends
# alone kept both.
OFF_EDGE_CORNER = value_set(
    (0.9999999999, 1.0000000001, -1e-10, 2e-09),
    (1.0000000005, -1e-10, 0.9999999999, -1e-10),
    (0.9999999999, 0.9999999999, 0.9999999999, -1e-10),
    (1.0000000005, 1.000000002, 1.0000000005, 0.9999999999),
    (1.000000002, -1e-10, 1.0000000005, 1.0000000005),
)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_sets())
@example(LIFTED_EXTREMUM)
@example(OFF_EDGE_CORNER)
def test_corner_weights_lie_apart(vectors):
    corners = np.array([w.weights for w in corner_weights(vectors)])
    gaps = np.abs(corners[:, None] - corners[None]).max(axis=2)
    assert gaps[np.triu_indices(len(corners), 1)].min(initial=np.inf) > WEIGHT_MATCH_ATOL


def simplex_weights(dim: int):
    """Weights of dim objectives: multiples of 1/4, points of a face (some
    weight exactly 0), or anywhere on a grid of small integer ratios."""
    quarters = st.lists(st.integers(0, 4), min_size=dim - 1, max_size=dim - 1).map(
        lambda cuts: np.diff([0, *sorted(cuts), 4]) / 4
    )
    ratios = st.lists(st.integers(0, 12), min_size=dim, max_size=dim).filter(any)
    face = st.tuples(ratios, st.integers(0, dim - 1)).map(
        lambda case: [0 if k == case[1] else r for k, r in enumerate(case[0])]
    ).filter(any)
    return st.one_of(quarters, face, ratios).map(lambda w: np.asarray(w, dtype=float) / np.sum(w))


@st.composite
def observation_sets(draw):
    """(weights, values, epsilon, queries): the simplex extrema then up to 8
    weights of 2-4 objectives, with values that are small integers (coplanar
    points and ties), integers moved by 1e-6 (points just off a facet) or
    floats, and the weights to bound."""
    dim = draw(st.integers(2, 4))
    weights = np.vstack([np.eye(dim), *draw(st.lists(simplex_weights(dim), max_size=8))])
    numbers = draw(
        st.sampled_from(
            [
                st.integers(-3, 3),
                st.tuples(st.integers(-3, 3), st.sampled_from([-1e-6, 0.0, 1e-6])).map(sum),
                st.floats(-2.0, 3.0),
            ]
        )
    )
    values = draw(st.lists(numbers, min_size=len(weights), max_size=len(weights)))
    epsilon = draw(st.sampled_from([0.0, 1e-6, 0.25]))
    queries = draw(st.lists(simplex_weights(dim), min_size=1, max_size=6))
    return weights, np.array(values, dtype=float), epsilon, queries


def tie_program(heights):
    """Observations at the extrema and at the corner weights of the four
    vectors whose tie an LP dominance test once misread (see
    `test_beaten_vector_near_a_tie_leaves_pruned_unchanged`), with values
    heights(vectors, w), bounded at those weights and two more."""
    vectors = [
        ValueVector(v) for v in ((-2.0, -2.0, 2.0), (1.0 - 1e-6, -1.0, -1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 2.0))
    ]
    weights = np.vstack([np.eye(3), [w.weights for w in corner_weights(vectors)]])
    values = np.array([heights(vectors, w) for w in weights])
    queries = list(weights) + [np.array([1, 1, 1]) / 3, np.array([0.5, 0.0, 0.5])]
    return weights, values, 1e-6, queries


SURFACE_TIE = tie_program(lambda s, w: max(np.dot(w, v.values) for v in s))
COPLANAR_TIE = tie_program(lambda s, w: float(np.dot(w, s[0].values)))


@settings(max_examples=300, deadline=None)
@given(observation_sets())
@example(SURFACE_TIE)
@example(COPLANAR_TIE)
def test_lower_hull_bound_matches_the_lp(case):
    weights, values, epsilon, queries = case
    dim = weights.shape[1]
    heights = values + epsilon
    facets, planes = np.arange(dim)[None], heights[None, :dim]
    for n in range(dim + 1, len(weights) + 1):
        facets, planes = ccs._fold_lower_hull(facets, planes, weights[:n], heights[:n])
    observations = [(WeightVector(tuple(w)), float(v)) for w, v in zip(weights, values)]
    for w in queries:
        lp = optimistic_bound(observations, WeightVector(tuple(w)), epsilon)
        assert abs(np.max(planes @ w) - lp) <= 1e-9
