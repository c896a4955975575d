import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlkit.core import (
    Iorm,
    ValueVector,
    WeightVector,
    scalarize,
    simplex_extrema,
    uniform_weight,
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
