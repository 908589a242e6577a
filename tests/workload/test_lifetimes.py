"""Tests for the peer-lifetime model."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.lifetimes import (
    DEFAULT_MEDIAN_LIFETIME_S,
    MIN_LIFETIME_S,
    LifetimeModel,
    synthesize_lifetime_sample,
)


@pytest.fixture
def rng():
    return random.Random(7)


class TestSyntheticSample:
    def test_size(self):
        assert len(synthesize_lifetime_sample(size=100)) == 100

    def test_floor_respected(self):
        sample = synthesize_lifetime_sample(size=5000)
        assert min(sample) >= MIN_LIFETIME_S

    def test_deterministic(self):
        assert synthesize_lifetime_sample(size=10) == synthesize_lifetime_sample(
            size=10
        )

    def test_median_near_configured(self):
        sample = sorted(synthesize_lifetime_sample(size=20_000))
        median = sample[len(sample) // 2]
        assert median == pytest.approx(DEFAULT_MEDIAN_LIFETIME_S, rel=0.1)

    def test_heavy_tail_exists(self):
        sample = synthesize_lifetime_sample(size=20_000)
        assert max(sample) > 10 * DEFAULT_MEDIAN_LIFETIME_S

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            synthesize_lifetime_sample(size=0)


class TestLifetimeModel:
    def test_positive_samples(self, rng):
        model = LifetimeModel()
        assert all(model.sample(rng) > 0 for _ in range(100))

    def test_multiplier_scales(self, rng):
        base = LifetimeModel(multiplier=1.0)
        scaled = LifetimeModel(multiplier=0.2)
        # One trace, so the same draw scaled: every value is 0.2x.
        draws = [(base.sample(random.Random(s)), scaled.sample(random.Random(s)))
                 for s in range(20)]
        assert all(b == pytest.approx(0.2 * a) for a, b in draws)

    def test_invalid_multiplier(self):
        with pytest.raises(WorkloadError):
            LifetimeModel(multiplier=0.0)
        with pytest.raises(WorkloadError):
            LifetimeModel(multiplier=-1.0)

    def test_custom_sample(self, rng):
        model = LifetimeModel(sample=[100.0, 100.0, 100.0])
        assert model.sample(rng) == pytest.approx(100.0)

    def test_custom_sample_validates_positive(self):
        with pytest.raises(WorkloadError):
            LifetimeModel(sample=[10.0, -1.0])
