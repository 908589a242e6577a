"""Tests for the workload samplers."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import (
    BoundedParetoSampler,
    EmpiricalSampler,
    LogNormalSampler,
    ZipfSampler,
)


@pytest.fixture
def rng():
    return random.Random(123)


def pmf(sampler, rank):
    """Probability mass of ``rank``, read off the sampler's CDF."""
    cdf = sampler._cdf[1:]  # past the sentinel
    return cdf[rank - 1] - (cdf[rank - 2] if rank >= 2 else 0.0)


class FixedDraw:
    """An rng whose ``random()`` is always ``u``: one point on the CDF."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestZipfSampler:
    def test_samples_in_range(self, rng):
        sampler = ZipfSampler(100, 1.0)
        for _ in range(500):
            assert 1 <= sampler.sample(rng) <= 100

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 0.8)
        total = sum(pmf(sampler, r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_rank_one_most_probable(self):
        sampler = ZipfSampler(100, 1.0)
        assert pmf(sampler, 1) > pmf(sampler, 2)
        assert pmf(sampler, 2) > pmf(sampler, 50)

    def test_skew_increases_head_mass(self):
        flat = ZipfSampler(100, 0.2)
        steep = ZipfSampler(100, 1.5)
        assert pmf(steep, 1) > pmf(flat, 1)

    def test_exponent_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0)
        probs = [pmf(sampler, r) for r in range(1, 11)]
        assert all(p == pytest.approx(0.1) for p in probs)

    def test_empirical_head_frequency(self, rng):
        sampler = ZipfSampler(1000, 1.0)
        draws = sampler.sample_many(rng, 20_000)
        frequency = draws.count(1) / len(draws)
        assert frequency == pytest.approx(pmf(sampler, 1), rel=0.15)

    def test_sample_many_length(self, rng):
        assert len(ZipfSampler(10).sample_many(rng, 7)) == 7

    def test_n_one(self, rng):
        sampler = ZipfSampler(1, 1.0)
        assert sampler.sample(rng) == 1

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -1.0)


class TestLogNormalSampler:
    def test_positive_samples(self, rng):
        sampler = LogNormalSampler(median=100.0, sigma=1.0)
        assert all(sampler.sample(rng) > 0 for _ in range(200))

    def test_median_approximately_respected(self, rng):
        sampler = LogNormalSampler(median=100.0, sigma=1.0)
        draws = sorted(sampler.sample(rng) for _ in range(4000))
        empirical_median = draws[len(draws) // 2]
        assert empirical_median == pytest.approx(100.0, rel=0.15)

    def test_mean_formula(self, rng):
        # The log-normal mean is the median times exp(sigma**2 / 2).
        sampler = LogNormalSampler(median=10.0, sigma=0.5)
        draws = [sampler.sample(rng) for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(
            10.0 * math.exp(0.5**2 / 2), rel=0.02
        )

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            LogNormalSampler(median=0.0, sigma=1.0)
        with pytest.raises(WorkloadError):
            LogNormalSampler(median=1.0, sigma=0.0)


class TestBoundedParetoSampler:
    def test_respects_bounds(self, rng):
        sampler = BoundedParetoSampler(alpha=1.0, lower=10.0, upper=1000.0)
        for _ in range(500):
            value = sampler.sample(rng)
            assert 10.0 <= value <= 1000.0

    def test_heavy_tail_mass_near_lower(self, rng):
        sampler = BoundedParetoSampler(alpha=1.5, lower=1.0, upper=100.0)
        draws = [sampler.sample(rng) for _ in range(2000)]
        below_ten = sum(1 for v in draws if v < 10.0) / len(draws)
        assert below_ten > 0.8  # most mass near the lower bound

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            BoundedParetoSampler(alpha=0.0, lower=1.0, upper=2.0)
        with pytest.raises(WorkloadError):
            BoundedParetoSampler(alpha=1.0, lower=0.0, upper=2.0)
        with pytest.raises(WorkloadError):
            BoundedParetoSampler(alpha=1.0, lower=5.0, upper=5.0)


class TestEmpiricalSampler:
    def test_single_observation(self, rng):
        sampler = EmpiricalSampler([42.0])
        assert sampler.sample(rng) == 42.0
        assert sampler.sample(FixedDraw(0.3)) == 42.0

    def test_samples_within_observed_range(self, rng):
        sampler = EmpiricalSampler([1.0, 5.0, 9.0])
        for _ in range(200):
            assert 1.0 <= sampler.sample(rng) <= 9.0

    def test_quantiles(self):
        # A draw is the interpolated quantile at a uniform point.
        sampler = EmpiricalSampler([0.0, 10.0])
        assert sampler.sample(FixedDraw(0.0)) == 0.0
        assert sampler.sample(FixedDraw(0.5)) == pytest.approx(5.0)
        assert sampler.sample(FixedDraw(0.75)) == pytest.approx(7.5)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            EmpiricalSampler([])

    def test_non_finite_rejected(self):
        with pytest.raises(WorkloadError):
            EmpiricalSampler([1.0, float("inf")])

    def test_len(self):
        assert len(EmpiricalSampler([1.0, 2.0, 3.0])) == 3
