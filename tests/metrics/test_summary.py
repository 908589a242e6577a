"""Tests for the statistics helpers."""

from __future__ import annotations

import pytest

from repro.metrics.summary import mean, quantile, ratio


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_single(self):
        assert mean([7.0]) == 7.0


class TestQuantile:
    def test_median(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 9.0

    def test_interpolation(self):
        assert quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_value(self):
        assert quantile([4.0], 0.9) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestRatio:
    def test_basic(self):
        assert ratio(6.0, 3.0) == 2.0

    def test_zero_denominator(self):
        assert ratio(5.0, 0.0) == 0.0
