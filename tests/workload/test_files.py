"""Tests for the shared-file-count model."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.files import FileCountModel


@pytest.fixture
def rng():
    return random.Random(99)


class TestFileCountModel:
    def test_nonnegative_integers(self, rng):
        model = FileCountModel()
        for _ in range(500):
            value = model.sample(rng)
            assert isinstance(value, int)
            assert value >= 0

    def test_free_rider_fraction(self, rng):
        model = FileCountModel(free_rider_p=0.25)
        draws = [model.sample(rng) for _ in range(8000)]
        zero_fraction = draws.count(0) / len(draws)
        assert zero_fraction == pytest.approx(0.25, abs=0.03)

    def test_no_free_riders_when_disabled(self, rng):
        model = FileCountModel(free_rider_p=0.0)
        assert all(model.sample(rng) >= 1 for _ in range(500))

    def test_heavy_tail_present(self, rng):
        model = FileCountModel()
        draws = [model.sample(rng) for _ in range(8000)]
        assert max(draws) > 1000  # the Pareto tail fires

    def test_skew_top_sharers_dominate(self, rng):
        # The Saroiu headline: a small minority serves most content.
        model = FileCountModel()
        draws = sorted((model.sample(rng) for _ in range(5000)), reverse=True)
        top = sum(draws[: len(draws) // 10])
        assert top / max(1, sum(draws)) > 0.5

    def test_tail_bounds_respected(self, rng):
        model = FileCountModel(
            tail_p=1.0 - 1e-9, free_rider_p=0.0,
            tail_lower=100.0, tail_upper=200.0,
        )
        draws = [model.sample(rng) for _ in range(300)]
        assert all(100 <= v <= 200 for v in draws)

    def test_invalid_probabilities(self):
        with pytest.raises(WorkloadError):
            FileCountModel(free_rider_p=1.0)
        with pytest.raises(WorkloadError):
            FileCountModel(free_rider_p=-0.1)
        with pytest.raises(WorkloadError):
            FileCountModel(tail_p=1.5)
