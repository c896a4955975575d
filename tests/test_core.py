import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlkit.core import (
    Iorm,
    TrajectoryBatch,
    ValueVector,
    WeightVector,
    discounted_return,
    empirical_value_estimate,
    scalarize,
    simplex_extrema,
    uniform_weight,
)


def make_batch(rewards, dones, starts):
    rewards = np.asarray(rewards, dtype=float)
    n = rewards.shape[0]
    return TrajectoryBatch(
        states=np.zeros((n, 1)),
        actions=np.zeros((n, 1)),
        rewards=rewards,
        dones=np.asarray(dones, dtype=bool),
        log_probs=np.zeros(n),
        episode_starts=tuple(starts),
    )


class TestValueVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ValueVector((1.0, float("nan")))
        with pytest.raises(ValueError):
            ValueVector((float("inf"),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ValueVector(())

    def test_round_trips_values(self):
        v = ValueVector((1, -2, 0.5))
        assert v.values == (1.0, -2.0, 0.5)
        assert v.dim == 3


class TestWeightVector:
    def test_simplex_validation(self):
        WeightVector((0.25, 0.75))
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.6))
        with pytest.raises(ValueError):
            WeightVector((-0.1, 1.1))

    def test_tiny_negative_clamped(self):
        w = WeightVector((1.0 + 1e-12, -1e-12))
        assert w.weights[1] == 0.0

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_simplex_points_accepted(self, dim, data):
        raw = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0),
                    min_size=dim,
                    max_size=dim,
                )
            )
        )
        w = WeightVector(tuple(raw / raw.sum()))
        assert abs(sum(w.weights) - 1.0) <= 1e-9


class TestIorm:
    def test_identity(self):
        assert np.array_equal(Iorm.identity(3).matrix, np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Iorm((WeightVector((0.5, 0.5)), WeightVector((1.0,))))

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_rows_stay_stochastic(self, dim, data):
        rows = []
        for _ in range(dim):
            raw = np.array(
                data.draw(
                    st.lists(
                        st.floats(min_value=0.01, max_value=1.0),
                        min_size=dim,
                        max_size=dim,
                    )
                )
            )
            rows.append(WeightVector(tuple(raw / raw.sum())))
        m = Iorm(tuple(rows))
        for row in m.rows:
            assert abs(sum(row.weights) - 1.0) <= 1e-9
            assert min(row.weights) >= 0.0


class TestScalarize:
    def test_matches_dot(self):
        assert scalarize(WeightVector((0.25, 0.75)), ValueVector((4.0, 8.0))) == 7.0

    def test_extrema_and_uniform(self):
        es = simplex_extrema(3)
        assert [e.weights for e in es] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert abs(sum(uniform_weight(3).weights) - 1.0) <= 1e-12


class TestDiscountedReturn:
    def test_single_step(self):
        batch = make_batch([[1.0, -1.0]], [True], [0])
        assert discounted_return(batch, 0, 0.37).values == (1.0, -1.0)

    def test_two_step_hand_sum(self):
        # Oracle: 1 + 0.5 * 1 = 1.5 on channel 0, zero on channel 1.
        batch = make_batch([[1.0, 0.0], [1.0, 0.0]], [False, True], [0])
        assert discounted_return(batch, 0, 0.5).values == (1.5, 0.0)

    def test_zero_rewards(self):
        batch = make_batch(np.zeros((4, 2)), [False] * 3 + [True], [0])
        assert discounted_return(batch, 0, 0.9).values == (0.0, 0.0)

    def test_gamma_zero_is_first_reward(self):
        batch = make_batch([[2.0, 3.0], [5.0, 7.0]], [False, True], [0])
        assert discounted_return(batch, 0, 0.0).values == (2.0, 3.0)

    def test_bad_episode_index(self):
        batch = make_batch([[1.0]], [True], [0])
        with pytest.raises(IndexError):
            discounted_return(batch, 1, 0.9)


class TestEmpiricalValueEstimate:
    def test_single_episode_zero_std(self):
        batch = make_batch([[1.0, 2.0]], [True], [0])
        mean, std = empirical_value_estimate(batch, 0.9)
        assert mean.values == (1.0, 2.0)
        assert std.values == (0.0, 0.0)

    def test_two_identical_episodes(self):
        batch = make_batch([[1.0], [1.0]], [True, True], [0, 1])
        mean, std = empirical_value_estimate(batch, 0.5)
        assert mean.values == (1.0,)
        assert std.values == (0.0,)

    def test_population_std(self):
        # Returns (1, 0) and (3, 0): mean (2, 0), population std (1, 0).
        batch = make_batch([[1.0, 0.0], [3.0, 0.0]], [True, True], [0, 1])
        mean, std = empirical_value_estimate(batch, 0.99)
        assert mean.values == (2.0, 0.0)
        assert std.values == (1.0, 0.0)

    def test_requires_complete_episode(self):
        batch = make_batch([[1.0], [1.0]], [False, False], [0])
        with pytest.raises(ValueError):
            empirical_value_estimate(batch, 0.9)


class TestTrajectoryBatch:
    def test_boundaries_partition(self):
        with pytest.raises(ValueError):
            make_batch([[1.0], [1.0]], [False, True], [1])
        with pytest.raises(ValueError):
            make_batch([[1.0], [1.0]], [False, True], [0, 0])
        with pytest.raises(ValueError):
            make_batch([[1.0], [1.0]], [False, True], [0, 2])

    def test_complete_episode_detection(self):
        batch = make_batch([[1.0], [1.0], [1.0]], [True, False, False], [0, 1])
        assert batch.complete_episodes() == [0]
        assert batch.episode_bounds(1) == (1, 3)

    def test_arrays_frozen(self):
        batch = make_batch([[1.0]], [True], [0])
        with pytest.raises(ValueError):
            batch.rewards[0, 0] = 5.0
