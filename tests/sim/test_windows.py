"""Tests for per-second bucketed rate limiting."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sim.windows import BucketedRateLimiter


class TestBucketedRateLimiter:
    def test_counts_per_bucket(self):
        limiter = BucketedRateLimiter(window=1.0)
        limiter.record(0.2)
        limiter.record(0.7)
        limiter.record(1.1)
        assert limiter.count(0.5) == 2
        assert limiter.count(1.9) == 1

    def test_limit_per_bucket(self):
        limiter = BucketedRateLimiter(window=1.0, limit=2)
        assert limiter.try_record(5.1)
        assert limiter.try_record(5.9)
        assert not limiter.try_record(5.5)
        assert limiter.try_record(6.0)  # next bucket

    def test_out_of_order_timestamps_tolerated(self):
        # The whole point of the bucketed variant: interleaved virtual
        # probe timestamps from different queries.
        limiter = BucketedRateLimiter(window=1.0, limit=2)
        assert limiter.try_record(10.4)
        assert limiter.try_record(9.7)   # older bucket, fine
        assert limiter.try_record(10.6)
        assert not limiter.try_record(10.2)  # bucket 10 full

    def test_unlimited(self):
        limiter = BucketedRateLimiter(window=1.0, limit=None)
        for i in range(50):
            assert limiter.try_record(3.0)
        assert limiter.total == 50

    def test_prune_keeps_recent_buckets_correct(self):
        limiter = BucketedRateLimiter(window=1.0, limit=5)
        # Push far more buckets than the prune threshold.
        for second in range(1000):
            limiter.record(float(second))
        assert limiter.count(999.5) == 1
        assert limiter.total == 1000

    def test_reset(self):
        limiter = BucketedRateLimiter(window=1.0, limit=1)
        limiter.record(0.0)
        limiter.reset()
        assert limiter.total == 0
        assert limiter.try_record(0.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BucketedRateLimiter(window=-1.0)
        with pytest.raises(ConfigError):
            BucketedRateLimiter(limit=-2)

    def test_window_scales_buckets(self):
        limiter = BucketedRateLimiter(window=10.0, limit=1)
        assert limiter.try_record(1.0)
        assert not limiter.try_record(9.0)   # same 10s bucket
        assert limiter.try_record(11.0)
