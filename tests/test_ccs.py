import dataclasses
import math
import time
from itertools import product

import numpy as np
import pytest

from morlkit import ccs
from morlkit.ccs import (
    WEIGHT_MATCH_ATOL,
    PartialCcs,
    aols,
    corner_weights,
    coverage_gap,
    is_convex_undominated,
    optimistic_bound,
    pruned,
    relative_improvement,
    scalarized_max,
    write_history_csv,
)
from morlkit.core import ValueVector, WeightVector, scalarize, simplex_extrema
from morlkit.envs import (
    TabularMomdp,
    TreasureGrid,
    random_tabular_momdp,
    treasure_grid_to_tabular,
    value_iteration,
)
from reference_ccs import best_slack, exact_ccs, finite_horizon_values, pareto_front
from reference_corners import (
    incremental_corner_weights,
    pairwise_corner_weights,
    rebuilt_corner_weights,
)
from reference_trees import TREE_DISCOUNT, best_leaf_oracle, fruit_tree, tree_leaves

# Time bound for AOLS on each group of exactness instances. The 20
# three-objective ones take 0.8 s together on a 2-CPU host (2 s under
# pytest with other load); with the earlier pairwise corner enumeration they
# took 15 s. The five-objective one takes 0.5 s; solving every facet
# system that holds each new vector took it 15 s. The six-objective one
# takes 1 s; it took 2.2 s when pending and new corners were found by
# distance searches.
RUNTIME_BOUND_S = 10.0


def vv(*xs):
    return ValueVector(tuple(float(x) for x in xs))


def wv(*xs):
    return WeightVector(tuple(float(x) for x in xs))


def grid_weights_2d(points=10_001):
    return [wv(t, 1.0 - t) for t in np.linspace(0.0, 1.0, points)]


def corner_test_set(kind, seed, dim):
    """Seeded vector set: uniform random, on a concave front, or small
    integers (many exact ties and degenerate vertices)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    if kind == "random":
        vals = rng.uniform(0, 3, (n, dim))
    elif kind == "concave":
        raw = np.abs(rng.normal(size=(n, dim)))
        vals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        vals = rng.integers(0, 4, (n, dim)).astype(float)
    return [vv(*row) for row in np.unique(vals, axis=0)]


def fold_test_set(rng, dim):
    """Seeded vector set for the incremental-versus-rebuilt corner tests:
    uniform, concave or small-integer rows, sometimes with repeated rows,
    rows dominated by another row, and a common offset of up to 1e6."""
    n = int(rng.integers(1, 8 if dim < 5 else 6))
    kind = rng.integers(3)
    if kind == 0:
        vals = rng.uniform(0, 3, (n, dim))
    elif kind == 1:
        raw = np.abs(rng.normal(size=(n, dim)))
        vals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        vals = rng.integers(0, 4, (n, dim)).astype(float)
    if rng.random() < 0.3:
        vals = np.vstack([vals, vals[rng.integers(n, size=int(rng.integers(1, 3)))]])
    if rng.random() < 0.3:
        below = vals[rng.integers(n)] - rng.uniform(0.0, 0.5, dim)
        vals = np.insert(vals, int(rng.integers(len(vals) + 1)), below, axis=0)
    offset = rng.choice([0.0, 1000.0, 1e6])
    return [vv(*(row + offset)) for row in vals]


def assert_same_corners(got, want, label):
    assert len(got) == len(want), label
    assert np.max(max_norm_gaps(got, want)) <= WEIGHT_MATCH_ATOL, label
    assert np.max(max_norm_gaps(want, got)) <= WEIGHT_MATCH_ATOL, label


def max_norm_gaps(points, pool):
    """For each point (a weight or value vector), its max-norm distance to
    the nearest pool point."""
    a = np.array([tuple(p) for p in points])
    b = np.array([tuple(p) for p in pool])
    return np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2).min(axis=1)


def active_rank(w, vals):
    """Rank over (w, u) of the simplex row and the facet rows tight at w."""
    dim = len(w)
    u = np.max(vals @ w)
    rows = [np.append(np.ones(dim), 0.0)]
    rows += [np.append(v, -1.0) for v in vals if w @ v >= u - 1e-9]
    rows += [np.append(np.eye(dim)[k], 0.0) for k in range(dim) if w[k] <= 1e-9]
    return np.linalg.matrix_rank(np.array(rows), tol=1e-8)


def one_state_momdp(rewards, gamma):
    """One state that loops to itself; rewards[a] is action a's reward."""
    rewards = np.array([rewards], dtype=float)
    return TabularMomdp(
        transitions=np.ones((1, rewards.shape[1], 1)),
        rewards=rewards,
        initial=np.array([1.0]),
        discount=gamma,
        terminal=np.zeros(1, dtype=bool),
    )


def assert_scaled_sets(scales):
    """aols with the exact planner on the (5, 3, 3) problems of seeds 0-4,
    every reward times each scale, returns the unscaled set times the
    scale (relative error at most 1e-12, same member count)."""
    for i in range(5):
        m = random_tabular_momdp(np.random.default_rng(i), 5, 3, 3, discount=0.85)
        want = aols(lambda w: value_iteration(m, w)[1], 3, 1e-6).ccs.vectors
        for scale in scales:
            scaled = dataclasses.replace(m, rewards=scale * m.rewards)
            got = aols(lambda w: value_iteration(scaled, w)[1], 3, 1e-6).ccs.vectors
            assert len(got) == len(want), f"instance {i}, scale {scale}"
            expected = [v.array * scale for v in want]
            size = np.max(np.abs(expected))
            assert np.max(max_norm_gaps(got, expected)) <= 1e-12 * size, f"{i}, {scale}"
            assert np.max(max_norm_gaps(expected, got)) <= 1e-12 * size, f"{i}, {scale}"


def assert_every_leaf(vectors, depth, objectives):
    """The vectors are the fruit tree's discounted leaves, as sets within 1e-9."""
    want = TREE_DISCOUNT ** (depth - 1) * tree_leaves(depth, objectives)
    got = np.array([v.values for v in vectors])
    assert len(got) == len(want)
    assert max_norm_gaps(got, want).max() <= 1e-9 and max_norm_gaps(want, got).max() <= 1e-9


def tie_grid():
    """A 4x4 treasure grid whose exact planner returns three vectors, one of
    which only ties another: (1.805, -2.8525) and (3.61, -2.8525) both take
    the shortest path, so they tie at w = (0, 1) and the first wins nowhere."""
    grid = TreasureGrid(
        width=4, height=4, treasures=((0, 3, 2.0), (2, 3, 6.0), (3, 3, 15.0), (3, 0, 4.0)), horizon=12
    )
    return treasure_grid_to_tabular(grid, 0.95)


def grid_undominated_oracle(v, s, points=10_001):
    """Brute force: does some grid weight make v strictly the best?"""
    for w in grid_weights_2d(points):
        target = scalarize(w, v)
        if all(target > scalarize(w, other) + 1e-12 for other in s):
            return True
    return False


class TestScalarizedMax:
    def test_singleton(self):
        value = scalarized_max([vv(1, 0)], wv(0.3, 0.7))
        assert value == pytest.approx(0.3)

    def test_symmetric_tie_lowest_index(self):
        value = scalarized_max([vv(1, 0), vv(0, 1)], wv(0.5, 0.5))
        assert value == pytest.approx(0.5)

    def test_exhaustive_dot_product(self):
        # Oracle: compute both dots by hand; 0.25*3+0.75*1 = 1.5 < 0.25+3 = 3.25.
        value = scalarized_max([vv(3, 1), vv(1, 4)], wv(0.25, 0.75))
        assert value == pytest.approx(3.25)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            scalarized_max([], wv(1.0))


class TestIsConvexUndominated:
    def test_empty_set_vacuous(self):
        assert is_convex_undominated(vv(0, 0), [])

    def test_componentwise_dominated(self):
        assert not is_convex_undominated(vv(0, 0), [vv(1, 1)])

    def test_below_segment_matches_grid_oracle(self):
        v = vv(1.5, 1.5)
        s = [vv(3, 0), vv(0, 3)]
        assert grid_undominated_oracle(v, s) is False
        assert is_convex_undominated(v, s) is False

    def test_vertex_matches_grid_oracle(self):
        v = vv(3, 1)
        s = [vv(1, 4), vv(0, 0)]
        assert grid_undominated_oracle(v, s) is True
        assert is_convex_undominated(v, s) is True

    def test_random_agreement_with_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            s = [vv(*rng.uniform(-2, 2, 2)) for _ in range(rng.integers(1, 5))]
            v = vv(*rng.uniform(-2, 2, 2))
            assert is_convex_undominated(v, s) == grid_undominated_oracle(v, s)

    def test_margin_variant(self):
        # v = (3, 0) beats the set by at least 0.5 at e1 but not by 2: a
        # margin m is tested on v - m*1.
        s = [vv(2, 0)]
        assert is_convex_undominated(vv(2.5, -0.5), s)
        assert not is_convex_undominated(vv(1, -2), s)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_agrees_with_linprog(self, dim):
        # Oracle: scipy's HiGHS maximizes the worst slack over the simplex.
        for seed in range(60):
            rng = np.random.default_rng([dim, 23, seed])
            n = int(rng.integers(1, 9))
            if seed % 2:
                vals = rng.integers(0, 4, (n + 1, dim)).astype(float)
            else:
                vals = rng.uniform(-2, 2, (n + 1, dim))
            v, others = vals[0], vals[1:]
            for margin in (0.0, 0.1):
                want = best_slack(v, others) > margin + WEIGHT_MATCH_ATOL
                got = is_convex_undominated(vv(*(v - margin)), [vv(*o) for o in others])
                assert got == want, (seed, margin)

    def test_tableau_tie_case_reads_dominated(self):
        # The best slack is 0, at a weight where v ties (0, 0, 2); a simplex
        # tableau that breaks ratio ties by index reported 1.4e-9 here.
        s = [vv(1 - 1e-6, -1, -1), vv(1, 0, 0), vv(0, 0, 2)]
        assert abs(best_slack(np.array([-2.0, -2.0, 2.0]), np.array([o.values for o in s]))) <= 1e-12
        assert not is_convex_undominated(vv(-2, -2, 2), s)


class TestCornerWeights:
    def test_singleton_yields_extrema(self):
        corners = corner_weights([vv(2, 5, 1)])
        assert sorted(c.weights for c in corners) == [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        ]

    def test_two_vector_crossing(self):
        # Oracle: solve 3w + (1-w) = w + 4(1-w) analytically -> w = 3/5.
        corners = corner_weights([vv(3, 1), vv(1, 4)])
        weights = sorted(c.weights for c in corners)
        assert len(weights) == 3
        assert weights[1][0] == pytest.approx(0.6, abs=1e-9)

    def test_dominated_vector_changes_nothing(self):
        s = [vv(3, 1), vv(1, 4)]
        s_extra = s + [vv(2, 0)]  # strictly below (3, 1)
        a = sorted(c.weights for c in corner_weights(s))
        b = sorted(c.weights for c in corner_weights(s_extra))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert max(abs(p - q) for p, q in zip(x, y)) <= 1e-9
        # Oracle: dense-grid envelope agrees with and without the extra vector.
        for w in grid_weights_2d(2001):
            env_a = max(scalarize(w, v) for v in s)
            env_b = max(scalarize(w, v) for v in s_extra)
            assert env_a == pytest.approx(env_b, abs=1e-12)

    def test_corners_match_grid_envelope_breakpoints(self):
        # Oracle: every interior corner is where the grid argmax changes.
        rng = np.random.default_rng(3)
        s = [vv(*rng.uniform(0, 3, 2)) for _ in range(5)]
        corners = corner_weights(s)
        grid = grid_weights_2d(100_001)
        argmaxes = [int(np.argmax([scalarize(w, v) for v in s])) for w in grid]
        switches = {
            0.5 * (grid[k][0] + grid[k + 1][0])
            for k in range(len(grid) - 1)
            if argmaxes[k] != argmaxes[k + 1]
        }
        interior = [c[0] for c in corners if 0.0 < c[0] < 1.0]
        assert len(interior) == len(switches)
        for got in interior:
            assert min(abs(got - want) for want in switches) <= 1e-4

    def test_three_objective_corners_on_simplex(self):
        rng = np.random.default_rng(11)
        s = [vv(*rng.uniform(0, 3, 3)) for _ in range(4)]
        corners = corner_weights(s)
        extrema = {e.weights for e in simplex_extrema(3)}
        got = {c.weights for c in corners}
        assert extrema <= got
        for c in corners:
            assert abs(sum(c.weights) - 1.0) <= 1e-9
            assert min(c.weights) >= 0.0

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    @pytest.mark.parametrize("kind", ["random", "concave", "integer"])
    def test_matches_pairwise_reference_at_three_objectives(self, kind, offset):
        for seed in range(50):
            s = [vv(*(np.array(v.values) + offset)) for v in corner_test_set(kind, seed, 3)]
            got = corner_weights(s)
            want = pairwise_corner_weights(s)
            assert len(got) == len(want), f"{kind} seed {seed}"
            assert np.max(max_norm_gaps(got, want)) <= 1e-9, f"{kind} seed {seed}"
            assert np.max(max_norm_gaps(want, got)) <= 1e-9, f"{kind} seed {seed}"

    def test_small_gaps_on_a_large_common_offset(self):
        # Shifting every vector by a common vector keeps the corners; the
        # interior vertex must survive the rank test at any offset.
        for offset in (0.0, 1000.0, 1e6):
            s = [vv(*(offset + 0.02 * row)) for row in np.eye(3)]
            got = corner_weights(s)
            assert len(got) == 7, offset
            assert np.max(max_norm_gaps([wv(1 / 3, 1 / 3, 1 / 3)], got)) <= 1e-9, offset

    def test_four_objective_corners_are_vertices(self):
        # The pairwise reference can choose linearly dependent pair rows at
        # dim >= 4 and then returns points on edges of the surface; every
        # point only it returns must be such a point (active rank < 5).
        spurious = 0
        for seed in range(100):
            s = corner_test_set("random", 1000 + seed, 4)
            vals = np.array([v.values for v in s])
            got = corner_weights(s)
            want = pairwise_corner_weights(s)
            assert np.max(max_norm_gaps(got, want)) <= 1e-9, f"seed {seed}"
            for corner in got:
                assert active_rank(corner.array, vals) == 5, f"seed {seed}"
            for corner, gap in zip(want, max_norm_gaps(want, got)):
                if gap > 1e-9:
                    spurious += 1
                    assert active_rank(corner.array, vals) < 5, f"seed {seed}"
        assert spurious > 0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_incremental_matches_rebuild(self, dim):
        # corner_weights adds one vector at a time; rebuilding from all
        # C(n + dim, dim) facet systems must give the same corners.
        for seed in range(110):
            s = fold_test_set(np.random.default_rng([dim, seed]), dim)
            assert_same_corners(corner_weights(s), rebuilt_corner_weights(s), f"seed {seed}")

    @pytest.mark.parametrize("dim", [3, 4])
    def test_boundary_corners_hold_positive_zeros(self, dim):
        # Edges on the simplex boundary are crossed by interpolation, which
        # must leave a weight that is +0.0 at both ends +0.0, not -0.0 or a
        # round-off residue.
        boundary = 0
        for seed in range(80):
            rng = np.random.default_rng([dim, 71, seed])
            vals = rng.integers(0, 4, (int(rng.integers(2, 10)), dim))
            corners = np.array([c.weights for c in corner_weights([vv(*row) for row in vals])])
            zero = corners == 0.0
            assert not np.any(np.signbit(corners[zero])), seed
            assert np.all(zero | (corners > WEIGHT_MATCH_ATOL)), seed
            boundary += int(np.sum(zero.any(axis=1) & (np.sum(~zero, axis=1) > 1)))
        assert boundary > 100

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_edge_crossings_match_facet_solves_on_integer_sets(self, dim):
        # Small integers tie often: a new vector meets the surface exactly
        # at kept corners, and several cut edges can end at one corner.
        # Crossing edges must find the corners that solving every facet
        # system with the new vector's row finds.
        for seed in range(80):
            rng = np.random.default_rng([dim, 70, seed])
            vals = rng.integers(0, 4, (int(rng.integers(2, 10 if dim < 5 else 8)), dim))
            s = [vv(*row) for row in vals]
            assert_same_corners(corner_weights(s), incremental_corner_weights(s), f"seed {seed}")


class TestOptimisticBound:
    def test_single_observation_at_same_weight(self):
        w = wv(0.5, 0.5)
        assert optimistic_bound([(w, 2.0)], w, 0.25) == pytest.approx(2.25, abs=1e-9)

    def test_exact_recovery_of_point(self):
        v = vv(3, 4)
        obs = [(e, scalarize(e, v)) for e in simplex_extrema(2)]
        w = wv(0.3, 0.7)
        assert optimistic_bound(obs, w, 0.0) == pytest.approx(scalarize(w, v), abs=1e-9)

    def test_two_observation_corner(self):
        # Oracle: LP vertex u = (3, 4) by hand.
        obs = [(wv(1, 0), 3.0), (wv(0, 1), 4.0)]
        assert optimistic_bound(obs, wv(0.5, 0.5), 0.0) == pytest.approx(3.5, abs=1e-9)

    def test_unbounded_without_extrema(self):
        with pytest.raises(ValueError):
            optimistic_bound([(wv(1, 0), 3.0)], wv(0.5, 0.5), 0.0)

    def test_upper_bound_property(self):
        # Bound dominates the surface value whenever every observation is a
        # genuine envelope query over the same set.
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = [vv(*rng.uniform(-1, 3, 2)) for _ in range(4)]
            obs_weights = list(simplex_extrema(2)) + [
                wv(*(lambda r: (r, 1 - r))(rng.uniform())) for _ in range(5)
            ]
            obs = [(w, scalarized_max(s, w)) for w in obs_weights]
            for _ in range(10):
                w = wv(*(lambda r: (r, 1 - r))(rng.uniform()))
                surface = scalarized_max(s, w)
                assert optimistic_bound(obs, w, 0.0) >= surface - 1e-9


class TestRelativeImprovement:
    def test_converged(self):
        assert relative_improvement(10.0, 10.0) == 0.0

    def test_half(self):
        assert relative_improvement(10.0, 5.0) == pytest.approx(0.5)

    def test_hand_arithmetic(self):
        assert relative_improvement(8.0, 7.6) == pytest.approx(0.05)

    def test_zero_bound_gives_absolute_gap(self):
        assert relative_improvement(0.0, -0.25) == 0.25

    def test_negative_bound_gives_absolute_gap(self):
        # A ratio would flip the sign: this surface lies 0.5 below the bound.
        assert relative_improvement(-2.0, -2.5) == 0.5
        assert relative_improvement(-2.0, -1.5) == -0.5


def best_of(*vectors):
    """Exact oracle over a fixed set: the first vector with the largest
    scalarized value."""
    vectors = [vv(*v) for v in vectors]
    return lambda w: max(vectors, key=lambda v: scalarize(w, v))


class TestAolsQueryOrder:
    """Which pending corner `aols` queries next. With the extrema (1, 0)
    and (0, 1) queried, the oracle's middle vector found at (0.5, 0.5) adds
    two corners, the one with the smaller first weight first."""

    @pytest.mark.parametrize("shape", [(5, 3, 2), (5, 3, 3), (5, 2, 4)])
    def test_extrema_first_in_index_order(self, shape):
        # Every extremum waits at infinite gap, so they are queried before
        # any corner and, as equal gaps, in the order they were added.
        m = random_tabular_momdp(np.random.default_rng(3), *shape, discount=0.9)
        result = aols(lambda w: value_iteration(m, w)[1], shape[2], 1e-6)
        assert len(result.history) > shape[2]
        head = [it.weight for it in result.history[: shape[2]]]
        assert head == simplex_extrema(shape[2])

    def test_larger_gap_first(self):
        result = aols(best_of((1, 0), (0, 1), (0.5, 0.7)), 2, 1e-6)
        # Gaps about 0.0750 at (0.375, 0.625) and 0.0833 at (7/12, 5/12):
        # the corner added second is queried first.
        got = [it.weight.weights for it in result.history]
        assert got[:3] == [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        assert got[3:] == [pytest.approx((7 / 12, 5 / 12)), pytest.approx((0.375, 0.625))]

    def test_earliest_added_first_among_equal_gaps(self):
        oracle = best_of((1, 0), (0, 1), (0.75, 0.75))
        result = aols(oracle, 2, 1e-6)
        explored = [it.weight for it in result.history]
        assert [w.weights for w in explored[3:]] == [(0.25, 0.75), (0.75, 0.25)]
        # The two corners tie exactly, so only the order added decides.
        wv_obs = [(w, scalarize(w, oracle(w))) for w in explored[:3]]
        s = [vv(1, 0), vv(0, 1), vv(0.75, 0.75)]
        gaps = {optimistic_bound(wv_obs, w, 1e-6) - scalarized_max(s, w) for w in explored[3:]}
        assert len(gaps) == 1


class TestPartialCcs:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PartialCcs((vv(1, 2), vv(1, 2)))

    def test_rejects_members_within_duplicate_tolerance(self):
        # 1e-7 apart: farther than the weight tolerance, within is_duplicate's.
        with pytest.raises(ValueError, match="vector 2 duplicates"):
            PartialCcs((vv(0, 3), vv(1, 2), vv(1, 2 + 1e-7)))
        assert len(PartialCcs((vv(1, 2), vv(1, 2 + 1e-5))).vectors) == 2


class TestPruned:
    @pytest.mark.parametrize("kind", ["random", "concave", "integer"])
    def test_keeps_what_the_dominance_test_keeps(self, kind):
        # Integer sets tie often. A member kept on its centroid witness must
        # be one the dominance test keeps too, and no other may go.
        rng = np.random.default_rng(5)
        for seed in range(40):
            vectors = corner_test_set(kind, seed, int(rng.integers(2, 5)))
            want = [
                v
                for k, v in enumerate(vectors)
                if is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
            ]
            assert pruned(vectors) == want, seed

    def test_empty_and_single_sets(self):
        assert pruned([]) == []
        assert pruned([vv(1, 2)]) == [vv(1, 2)]

    def test_drops_a_vector_that_only_ties(self):
        assert pruned([vv(1, 0), vv(0.5, 0), vv(0, 1)]) == [vv(1, 0), vv(0, 1)]

    def test_keeps_the_best_at_each_extremum_when_none_wins(self):
        # On this small arc each member beats its neighbours by less than
        # WEIGHT_MATCH_ATOL, so the rule keeps none of them; the ends are
        # the best at the extrema, and they stay in input order.
        angles = [k * math.pi / 8 for k in range(5)]
        arc = [vv(1e-8 * math.cos(t), 1e-8 * math.sin(t)) for t in angles]
        assert pruned(arc) == [arc[0], arc[4]]
        assert pruned(arc[::-1]) == [arc[4], arc[0]]

    def test_best_at_an_extremum_breaks_ties_in_index_order(self):
        # None wins by more than WEIGHT_MATCH_ATOL anywhere. All three read 0
        # at e_0, and the next component gives that tie to (0, 1e-10, 0).
        tied = [vv(0, 0, 0), vv(0, 1e-10, 0), vv(0, 0, 1e-10)]
        assert pruned(tied) == [vv(0, 1e-10, 0), vv(0, 0, 1e-10)]


class TestIsDuplicate:
    def test_rejects_a_dimension_mismatch(self):
        # numpy would broadcast the length-1 vector against each member.
        with pytest.raises(ValueError, match="dimension mismatch"):
            ccs.is_duplicate(vv(1.0), [vv(1.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_convex_undominated(vv(1.0), [vv(1.0, 1.0, 1.0)])


class TestAols:
    def test_drops_vectors_that_only_tie(self, monkeypatch):
        dominance = ccs.is_convex_undominated
        programs = []
        monkeypatch.setattr(
            ccs, "is_convex_undominated", lambda *args: programs.append(args) or dominance(*args)
        )
        m = tie_grid()
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        assert sum(it.inserted for it in result.history) == 3
        got = [v.values for v in result.ccs.vectors]
        assert got == [pytest.approx((11.606714, -5.298162)), pytest.approx((3.61, -2.8525))]
        # The other two vectors each win at the centroid of their corners.
        assert len(programs) == 1 and programs[0][0].values == pytest.approx((1.805, -2.8525))

    def test_history_reports_the_gap_while_corners_are_queued(self):
        # After iteration 3 the queue holds a corner whose optimistic bound
        # is negative; its gap counts as an absolute gap, not as zero.
        m = tie_grid()
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        assert len(result.history) == 4 and not result.hit_iteration_cap
        assert all(it.remaining_delta_r > 0.0 for it in result.history[:-1])
        assert result.history[2].remaining_delta_r == pytest.approx(0.3449, abs=1e-4)
        assert result.history[-1].remaining_delta_r == 0.0

    def test_constant_oracle_single_point(self):
        calls = []

        def oracle(w):
            calls.append(w)
            return vv(1.0, -2.0, 0.5)

        result = aols(oracle, 3, 1e-6)
        assert len(result.ccs.vectors) == 1
        assert result.delta_max == 0.0
        assert len(result.explored_weights) == 3
        assert not result.hit_iteration_cap
        assert len(calls) == 3

    def test_exact_tabular_oracle_matches_grid_sweep(self):
        # Oracle: 1001-point weight grid sweep of the same exact solver,
        # filtered for convex dominance.
        rng = np.random.default_rng(123)
        m = random_tabular_momdp(rng, 8, 3, 2, discount=0.9)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        sweep = []
        for w in grid_weights_2d(1001):
            _, value = value_iteration(m, w)
            if all(np.max(np.abs(value.array - v.array)) > 1e-6 for v in sweep):
                sweep.append(value)
        reference = [
            v
            for k, v in enumerate(sweep)
            if is_convex_undominated(v, sweep[:k] + sweep[k + 1 :])
        ]
        got = sorted(v.values for v in result.ccs.vectors)
        want = sorted(v.values for v in reference)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert max(abs(a - b) for a, b in zip(x, y)) <= 1e-6
        assert result.delta_max <= 1e-6

    @pytest.mark.parametrize(
        "instances, shape",
        [(range(20), (5, 3, 3)), ([0], (5, 2, 4)), ([0], (5, 3, 5)), ([0], (5, 3, 6))],
        ids=["three-objectives", "four-objectives", "five-objectives", "six-objectives"],
    )
    def test_matches_exact_policy_enumeration(self, instances, shape):
        elapsed = 0.0
        for i in instances:
            m = random_tabular_momdp(np.random.default_rng(i), *shape, discount=0.85)
            started = time.perf_counter()
            result = aols(lambda w: value_iteration(m, w)[1], shape[2], 1e-6)
            elapsed += time.perf_counter() - started
            got = result.ccs.vectors
            want = exact_ccs(m)
            assert len(got) == len(want), f"instance {i}"
            assert np.max(max_norm_gaps(got, want)) <= 1e-6, f"instance {i}"
            assert np.max(max_norm_gaps(want, got)) <= 1e-6, f"instance {i}"
            assert result.delta_max <= 1e-6, f"instance {i}"
        assert elapsed < RUNTIME_BOUND_S, f"AOLS took {elapsed:.1f} s"

    def test_kept_corners_match_corner_weights_after_every_insertion(self, monkeypatch):
        # aols folds each new vector into the corner set it keeps; after
        # every fold that set must be the corner set of the vectors so far.
        fold = ccs._add_facets
        folds = []
        monkeypatch.setattr(
            ccs, "_add_facets", lambda *args: folds.append(fold(*args)) or folds[-1]
        )
        runs = []
        for i, shape in enumerate([(6, 3, 2), (5, 3, 3), (5, 3, 3), (4, 2, 4)]):
            m = random_tabular_momdp(np.random.default_rng(40 + i), *shape, discount=0.85)
            result = aols(lambda w: value_iteration(m, w)[1], shape[2], 1e-6)
            runs.append((shape[2], result.ccs.vectors, folds[:], result.history))
            folds.clear()
        monkeypatch.undo()
        for i, (dim, vectors, kept_sets, history) in enumerate(runs):
            # One fold once the extrema are explored, then one per insertion.
            first = len(vectors) - len(kept_sets) + 1
            assert 1 <= first <= dim and len(kept_sets) > 1
            for n, points in enumerate(kept_sets, start=first):
                kept = [wv(*p) for p in points]
                assert_same_corners(kept, corner_weights(vectors[:n]), f"{i}: {n}")
                assert_same_corners(kept, rebuilt_corner_weights(vectors[:n]), f"{i}: {n}")
            # aols tells pending corners by their exact rows, so every weight
            # queried after the extrema is, bit for bit, a row of a fold made
            # before the query.
            folded_at = [dim] + [it.index for it in history if it.inserted and it.index > dim]
            assert len(folded_at) == len(kept_sets)
            for it in history[dim:]:
                rows = {
                    row.tobytes()
                    for at, points in zip(folded_at, kept_sets)
                    if at < it.index
                    for row in points
                }
                assert np.array(it.weight.weights).tobytes() in rows, (i, it.index)

    def test_hull_folds_only_when_a_corner_fold_reads_it(self, monkeypatch):
        # The explored points join the lower hull, in the order queried,
        # just before each corner fold, so none joins after the last
        # insertion; the hull read there bounds every corner as the LP does.
        hull_fold, corner_fold = ccs._fold_lower_hull, ccs._add_facets
        hulls, answers, bounded = [], [], []

        def watched_hull(facets, planes, points, heights):
            hulls.append((len(points), *hull_fold(facets, planes, points, heights)))
            return hulls[-1][1:]

        def watched_corners(points, vals, start):
            corners = corner_fold(points, vals, start)
            observed = [(w, scalarize(w, v)) for w, v in answers]
            if hulls:
                assert hulls[-1][0] == len(answers)
                planes = hulls[-1][2]
            else:
                planes = np.array([[value + 1e-6 for _, value in observed]])
            for corner in corners:
                bound = optimistic_bound(observed, WeightVector(tuple(corner)), 1e-6)
                assert abs(np.max(planes @ corner) - bound) <= 1e-9
            bounded.append(len(corners))
            return corners

        monkeypatch.setattr(ccs, "_fold_lower_hull", watched_hull)
        monkeypatch.setattr(ccs, "_add_facets", watched_corners)
        skipped = 0
        for i, shape in enumerate([(6, 3, 2), (5, 3, 3), (5, 3, 3), (4, 2, 4)]):
            m = random_tabular_momdp(np.random.default_rng(40 + i), *shape, discount=0.85)
            hulls.clear()
            answers.clear()
            oracle = lambda w, m=m: answers.append((w, value_iteration(m, w)[1])) or answers[-1][1]
            result = aols(oracle, shape[2], 1e-6)
            last = max(shape[2], max(it.index for it in result.history if it.inserted))
            assert [n for n, *_ in hulls] == list(range(shape[2] + 1, last + 1)), i
            skipped += len(result.history) - last
        assert skipped > 0 and sum(bounded) > 100

    def test_scaled_rewards_scale_the_set(self):
        # Scales inside the range the ccs module docstring gives, none a
        # power of two, so that the scaled arithmetic rounds differently.
        assert_scaled_sets((1e-4, 0.3, 1e3))

    def test_large_rewards_scale_the_set(self):
        # With an absolute 1e-12 switching threshold, round-off in q values
        # of this size made policy iteration swap tied actions forever on
        # some of these problems at each of these scales.
        assert_scaled_sets((6e3, 1.1e4, 3e4, 1e6))

    def test_monotone_surface_growth(self):
        # V_S*(w) never decreases as the set grows, for 100 random weights.
        rng = np.random.default_rng(77)
        m = random_tabular_momdp(rng, 10, 3, 2, discount=0.9)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        probes = [wv(*(lambda r: (r, 1 - r))(rng.uniform())) for _ in range(100)]
        order = [v for v, it in zip(result.ccs.vectors, range(len(result.ccs.vectors)))]
        inserted = [it.index for it in result.history if it.inserted]
        assert len(inserted) == len(result.ccs.vectors)
        for probe in probes:
            previous = -math.inf
            for k in range(1, len(order) + 1):
                surface = scalarized_max(order[:k], probe)
                assert surface >= previous - 1e-12
                previous = surface

    def test_soundness_every_member_undominated(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            m = random_tabular_momdp(rng, 6, 3, 2, discount=0.9)
            result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
            vectors = list(result.ccs.vectors)
            for k, v in enumerate(vectors):
                assert is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])

    def test_epsilon_completeness(self):
        # With an exact oracle the surface is epsilon-close to optimal
        # everywhere on a dense grid.
        rng = np.random.default_rng(9)
        m = random_tabular_momdp(rng, 8, 2, 2, discount=0.9)
        epsilon = 1e-6
        result = aols(lambda w: value_iteration(m, w)[1], 2, epsilon)
        for w in grid_weights_2d(501):
            _, true_value = value_iteration(m, w)
            surface = scalarized_max(list(result.ccs.vectors), w)
            assert scalarize(w, true_value) - surface <= epsilon + 1e-9

    def test_treasure_grid_matches_policy_enumeration(self):
        # Oracle: exhaustive open-loop plan enumeration at the grid's horizon
        # (deterministic dynamics and a fixed start make plans equivalent to
        # deterministic policies), filtered for convex dominance.
        from morlkit.envs import TreasureGrid, boxed_treasure, treasure_grid_to_tabular

        grid = TreasureGrid(
            width=3, height=3, treasures=((0, 2, 1.0), (2, 2, 10.0)), horizon=5
        )
        gamma = 0.95
        tabular = treasure_grid_to_tabular(grid, gamma)
        result = aols(
            lambda w: finite_horizon_values(tabular, w, grid.horizon), 2, 1e-6
        )
        # Every plan is one copy of the boxed grid; all run in lockstep.
        plans = np.array(list(product(range(4), repeat=grid.horizon)))
        env = boxed_treasure(grid)
        rngs = [np.random.default_rng(0)] * len(plans)
        env.reset(rngs)
        totals = np.zeros((len(plans), 2))
        live = np.ones(len(plans), dtype=bool)
        for t in range(grid.horizon):
            _, rewards, dones = env.step(np.eye(4)[plans[:, t]], rngs)
            totals[live] += gamma**t * rewards[live]
            live &= ~dones
        assert not live.any()
        returns: list[np.ndarray] = []
        for total in totals:
            if all(np.max(np.abs(total - seen)) > 1e-9 for seen in returns):
                returns.append(total)
        vectors = [vv(*r) for r in returns]
        reference = sorted(
            v.values
            for k, v in enumerate(vectors)
            if is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
        )
        got = sorted(v.values for v in result.ccs.vectors)
        assert len(got) == len(reference)
        for a, b in zip(got, reference):
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9
        assert result.delta_max <= 1e-6

    def test_iteration_cap_flagged(self):
        rng = np.random.default_rng(1)
        m = random_tabular_momdp(rng, 8, 3, 2, discount=0.9)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6, max_iterations=2)
        assert result.hit_iteration_cap

    def test_cap_flag_and_explored_weights_follow_the_history(self):
        # The cap counts as hit exactly when corners are still pending: a run
        # capped at its own length is not cut short, and a shorter cap keeps
        # the uncapped run's history up to the cap.
        m = random_tabular_momdp(np.random.default_rng(0), 5, 3, 3, discount=0.85)
        full = aols(lambda w: value_iteration(m, w)[1], 3, 1e-6)
        assert not full.hit_iteration_cap
        assert full.history[-1].remaining_delta_r == 0.0 and full.delta_max == 0.0
        n = len(full.history)
        for cap in (1, 3, 7, n - 1, n, n + 1, None):
            capped = {} if cap is None else {"max_iterations": cap}
            result = aols(lambda w: value_iteration(m, w)[1], 3, 1e-6, **capped)
            assert result.history == full.history[:cap]
            assert result.explored_weights == tuple(it.weight for it in result.history)
            assert result.hit_iteration_cap == (cap is not None and cap < n)
            pending = result.history[-1].remaining_delta_r > 0.0 and result.delta_max > 0.0
            assert result.hit_iteration_cap == pending

    def test_cap_before_every_extremum_still_prunes(self):
        # The corners are never folded here; the member test must still drop
        # the third answer, which only ties the first two where w_0 = 0.
        answers = iter([vv(2, 0, 0, 0), vv(0, 2, 0, 0), vv(1, 0, 0, 0)])
        result = aols(lambda w: next(answers), 4, 1e-6, max_iterations=3)
        assert result.hit_iteration_cap
        assert result.ccs.vectors == (vv(2, 0, 0, 0), vv(0, 2, 0, 0))

    def test_memoizes_oracle_within_call(self):
        # A constant oracle only visits the extrema; the planners at d = 2, 3
        # and 4 also visit 5, 17 and 56 corners, each once: one call per
        # history entry.
        oracles = [(2, lambda w: vv(2.0, 1.0))]
        for dim in (2, 3, 4):
            m = random_tabular_momdp(np.random.default_rng(dim), 5, 3, dim, discount=0.85)
            oracles.append((dim, lambda w, m=m: value_iteration(m, w)[1]))
        for dim, planner in oracles:
            seen = {}

            def oracle(w):
                assert w.weights not in seen, "oracle re-queried for the same weight"
                seen[w.weights] = True
                return planner(w)

            result = aols(oracle, dim, 1e-6)
            assert len(seen) == len(result.history) == len(result.explored_weights)

    def test_queries_only_current_corners(self):
        # After the extrema, (8, 5, 5) is found at (0.625, 0.375, 0) and lifts
        # the corner (0.25, 0, 0.75) that waits with it off the surface.
        oracle = best_of((5, 7, 5), (8, 2, 4), (8, 5, 5))
        answers = []
        stale = []

        def watched(w):
            if len(answers) >= 3:
                corners = np.array([c.weights for c in corner_weights(answers)])
                if np.max(np.abs(corners - w.array), axis=1).min() > WEIGHT_MATCH_ATOL:
                    stale.append(w.weights)
            answers.append(oracle(w))
            return answers[-1]

        result = aols(watched, 3, 1e-6)
        assert stale == []
        assert len(answers) == 5
        assert sorted(v.values for v in result.ccs.vectors) == [(5.0, 7.0, 5.0), (8.0, 5.0, 5.0)]

    def test_oracle_calls_on_the_benchmark_problems(self):
        # The five problems the aols_random3 benchmark relabels. Dropping
        # the corners a later vector lifts took the calls from 211
        # (57, 35, 38, 27, 54) to 158.
        calls = []
        for i in range(5):
            m = random_tabular_momdp(np.random.default_rng(i), 5, 3, 3, discount=0.85)
            calls.append(len(aols(lambda w: value_iteration(m, w)[1], 3, 1e-6).history))
        assert calls == [43, 27, 29, 20, 39]

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_policy_memo_leaves_the_result_unchanged(self, seed):
        # The second run on one problem object reads every policy's values
        # from the memo the first run filled, and solves nothing new.
        m = random_tabular_momdp(np.random.default_rng(seed), 5, 3, 3, discount=0.85)
        oracle = lambda w: value_iteration(m, w)[1]
        cold = aols(oracle, 3, 1e-6)
        solved = len(m._policy_values)
        warm = aols(oracle, 3, 1e-6)
        assert len(m._policy_values) == solved > 0
        assert warm.explored_weights == cold.explored_weights
        assert warm.history == cold.history
        assert warm.ccs.vectors == cold.ccs.vectors

    def test_explored_points_lie_on_or_above_the_lower_hull(self):
        # The hull `aols` bounds corners with is the largest convex function
        # at or below every explored point (weight, answer + epsilon). At
        # three objectives it holds to round-off: the worst point lay
        # 5.5e-13 below it.
        epsilon, worst = 1e-6, 0.0
        for seed in range(20):
            m = random_tabular_momdp(np.random.default_rng(seed), 5, 3, 3, discount=0.85)
            answers = []
            oracle = lambda w, m=m: answers.append(value_iteration(m, w)[1]) or answers[-1]
            result = aols(oracle, 3, epsilon)
            points = np.array([w.weights for w in result.explored_weights])
            heights = np.array([scalarize(w, v) for w, v in zip(result.explored_weights, answers)])
            heights += epsilon
            facets, planes = np.arange(3)[None], heights[None, :3]
            for n in range(4, len(points) + 1):
                facets, planes = ccs._fold_lower_hull(facets, planes, points[:n], heights[:n])
                below = np.max(points[:n] @ planes.T, axis=1) - heights[:n]
                worst = max(worst, float(below.max()))
        assert worst <= 1e-9

    @pytest.mark.parametrize("objectives", [4, 5, 6])
    def test_fruit_tree_returns_every_leaf(self, objectives):
        # 32 leaves; 192, 474 and 1,188 oracle calls, one per corner.
        result = aols(best_leaf_oracle(5, objectives), objectives, 1e-6)
        assert_every_leaf(result.ccs.vectors, 5, objectives)

    def test_fruit_tree_through_the_planner(self):
        m = fruit_tree(5, 4)
        result = aols(lambda w: value_iteration(m, w)[1], 4, 1e-6)
        assert_every_leaf(result.ccs.vectors, 5, 4)

    def test_benchmark_problems_prune_without_a_dominance_test(self, monkeypatch):
        # Every member of these sets wins at the centroid of its corners.
        dominance = ccs.is_convex_undominated
        programs = []
        monkeypatch.setattr(
            ccs, "is_convex_undominated", lambda *args: programs.append(args) or dominance(*args)
        )
        for i in range(5):
            m = random_tabular_momdp(np.random.default_rng(i), 5, 3, 3, discount=0.85)
            assert len(aols(lambda w: value_iteration(m, w)[1], 3, 1e-6).ccs.vectors) > 1
        assert programs == []

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            aols(lambda w: vv(1, 1), 2, 0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_must_be_finite(self, epsilon):
        # A NaN epsilon used to pass the check: no optimistic gap compares
        # above it, so a search stopped after the extrema with delta_max 0.
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            aols(lambda w: vv(1, 1), 2, epsilon)

    def test_oracle_dimension_checked(self):
        with pytest.raises(ValueError, match="oracle returned dimension 2, expected 3"):
            aols(lambda w: vv(1, 1), 3, 1e-6)

    def test_history_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_tabular_momdp(rng, 6, 2, 2, discount=0.9)
        result = aols(lambda w: value_iteration(m, w)[1], 2, 1e-6)
        path = tmp_path / "history.csv"
        write_history_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,w0,w1,delta_r"
        assert len(lines) == len(result.history) + 1
        last = lines[-1].split(",")
        assert float(last[-1]) == result.history[-1].remaining_delta_r


# Seeds and (states, actions, objectives) of the problems the certificate
# is checked on; (0, (5, 3, 3)) and (13, (5, 3, 3)) are instances where a
# 51-point-per-side weight grid misses coverage-set vectors.
GAP_PROBLEMS = [(3, (6, 3, 2)), (11, (8, 2, 2)), (0, (5, 3, 3)), (13, (5, 3, 3)), (0, (5, 2, 4))]


def solved_problem(seed, shape):
    """A random problem, its exact planner as an oracle, and AOLS's set."""
    m = random_tabular_momdp(np.random.default_rng(seed), *shape, discount=0.85)
    oracle = lambda w: value_iteration(m, w)[1]
    return m, oracle, list(aols(oracle, shape[2], 1e-6).ccs.vectors)


class TestCoverageGap:
    @pytest.mark.parametrize("seed, shape", GAP_PROBLEMS)
    def test_aols_set_has_no_gap(self, seed, shape):
        _, oracle, vectors = solved_problem(seed, shape)
        gap, weight = coverage_gap(vectors, oracle)
        assert gap <= 1e-6 and weight.dim == shape[2]

    @pytest.mark.parametrize("seed, shape", GAP_PROBLEMS)
    def test_dropping_any_vector_opens_a_gap(self, seed, shape):
        _, oracle, vectors = solved_problem(seed, shape)
        assert len(vectors) > 1
        for k in range(len(vectors)):
            gap, weight = coverage_gap(vectors[:k] + vectors[k + 1 :], oracle)
            assert gap > 1e-6, f"dropping vector {k}"
            surface = scalarized_max(vectors[:k] + vectors[k + 1 :], weight)
            assert gap == scalarize(weight, oracle(weight)) - surface

    @pytest.mark.parametrize("seed", range(4))
    def test_no_grid_weight_beats_the_corner_gap(self, seed):
        # The exact optimal value at w is the best of the exact coverage set.
        m = random_tabular_momdp(np.random.default_rng(seed), 6, 3, 2, discount=0.85)
        reference = exact_ccs(m)
        oracle = lambda w: max(reference, key=lambda v: scalarize(w, v))
        t = np.linspace(0.0, 1.0, 10_001)
        grid = np.column_stack([t, 1.0 - t])
        optimal = np.max(grid @ np.array([v.values for v in reference]).T, axis=1)
        subsets = [reference[:1]] + [reference[:k] + reference[k + 1 :] for k in range(len(reference))]
        for subset in subsets:
            gap, _ = coverage_gap(subset, oracle)
            grid_gap = np.max(optimal - np.max(grid @ np.array([v.values for v in subset]).T, axis=1))
            # The grid passes within 5e-5 of every corner, and the gap's
            # slope along the simplex is below 2 * 1 / (1 - 0.85).
            assert grid_gap <= gap + 1e-12 and gap - grid_gap <= 1e-3

    def test_constant_reward_singleton(self):
        m = one_state_momdp([[1.0, 2.0]], gamma=0.5)
        oracle = lambda w: value_iteration(m, w)[1]
        vectors = aols(oracle, 2, 1e-6).ccs.vectors
        assert len(vectors) == 1
        assert vectors[0].values == pytest.approx((2.0, 4.0), abs=1e-10)
        assert coverage_gap(vectors, oracle)[0] == 0.0

    def test_bandit_both_extremes(self):
        m = one_state_momdp([[1.0, 0.0], [0.0, 1.0]], gamma=0.0)
        oracle = lambda w: value_iteration(m, w)[1]
        vectors = aols(oracle, 2, 1e-6).ccs.vectors
        assert sorted(v.values for v in vectors) == [(0.0, 1.0), (1.0, 0.0)]
        assert coverage_gap(vectors, oracle)[0] == 0.0
        gap, weight = coverage_gap([vv(1, 0)], oracle)
        assert gap == 1.0 and weight.weights == (0.0, 1.0)


class TestExactReference:
    def test_pareto_front_matches_pairwise_filter(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 4)))
            vals = np.unique(rng.integers(0, 4, shape).astype(float), axis=0)
            dominated = [np.any(np.all(vals >= v, axis=1) & np.any(vals > v, axis=1)) for v in vals]
            assert np.array_equal(pareto_front(vals), vals[~np.array(dominated)])

    def test_finite_horizon_matches_unrolled_bandit(self):
        m = one_state_momdp([[1.0, 0.0], [0.0, 1.0]], gamma=0.5)
        value = finite_horizon_values(m, wv(1.0, 0.0), horizon=3)
        # Always pull arm 0: 1 + 0.5 + 0.25 on channel 0.
        assert value.values == pytest.approx((1.75, 0.0), abs=1e-12)
