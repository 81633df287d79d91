"""Tests for the statistics toolkit."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.util.stats import (
    geometric_mean,
    mean_absolute_percentage_error,
    pearson_correlation,
    spearman_correlation,
    sum_in_order,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        # Cross-checked against numpy.corrcoef for (1,2,3,4) vs (1,3,2,5).
        r = pearson_correlation([1, 2, 3, 4], [1, 3, 2, 5])
        expected = float(np.corrcoef([1, 2, 3, 4], [1, 3, 2, 5])[0, 1])
        assert r == pytest.approx(expected)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_zero_variance_raises(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_single_point_raises(self):
        with pytest.raises(ValidationError, match="two points"):
            pearson_correlation([1], [1])

    def test_nan_raises(self):
        with pytest.raises(ValidationError, match="non-finite"):
            pearson_correlation([1, float("nan")], [1, 2])

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    def test_bounded(self, xs):
        ys = [x * 2 + 1 for x in xs]
        try:
            r = pearson_correlation(xs, ys)
        except ValidationError:
            return  # numerically zero variance: correlation undefined
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    def test_symmetric(self, xs):
        rng = np.random.default_rng(0)
        ys = list(rng.normal(size=len(xs)))
        try:
            forward = pearson_correlation(xs, ys)
        except ValidationError:
            return  # numerically zero variance: correlation undefined
        assert forward == pytest.approx(pearson_correlation(ys, xs))


class TestSpearman:
    def test_monotonic_is_one(self):
        xs = [1.0, 2.0, 5.0, 100.0]
        ys = [x**3 for x in xs]
        assert spearman_correlation(xs, ys) == pytest.approx(1.0)

    def test_handles_ties(self):
        r = spearman_correlation([1, 2, 2, 3], [1, 2, 3, 4])
        assert -1.0 <= r <= 1.0

    def test_reversed_is_minus_one(self):
        assert spearman_correlation([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)


class TestGeometricMean:
    def test_known(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError, match="positive"):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=20))
    def test_between_min_and_max(self, xs):
        g = geometric_mean(xs)
        assert min(xs) - 1e-9 <= g <= max(xs) + 1e-9


class TestMape:
    def test_exact_prediction_is_zero(self):
        assert mean_absolute_percentage_error([10, 20], [10, 20]) == 0.0

    def test_known(self):
        # |9-10|/10 = 0.1, |22-20|/20 = 0.1 -> mean 0.1
        err = mean_absolute_percentage_error([10, 20], [9, 22])
        assert err == pytest.approx(0.1)

    def test_zero_actual_raises(self):
        with pytest.raises(ValidationError, match="non-zero"):
            mean_absolute_percentage_error([0, 1], [1, 1])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_empty_raises(self):
        with pytest.raises(ValidationError, match="non-empty"):
            summarize([])

    def test_as_dict_roundtrip(self):
        d = summarize([5.0]).as_dict()
        assert d["count"] == 1 and d["std"] == 0.0

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_invariants(self, xs):
        s = summarize(xs)
        tol = 1e-9 * max(1.0, abs(s.maximum), abs(s.minimum))
        assert s.minimum <= s.median <= s.maximum
        assert s.minimum - tol <= s.mean <= s.maximum + tol
        assert s.std >= 0.0
        assert not math.isnan(s.mean)


class TestSumInOrder:
    def test_empty_is_zero(self):
        assert sum_in_order([]) == 0.0

    def test_not_compensated(self):
        assert sum_in_order([1.0, 1e-16, 1e-16]) == 1.0

    @given(st.lists(finite_floats, max_size=50))
    def test_one_running_double(self, xs):
        total = 0.0
        for x in xs:
            total += x
        assert sum_in_order(xs) == total
