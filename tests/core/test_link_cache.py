"""Tests for the link cache."""

from __future__ import annotations

import random

import pytest

from repro.core.link_cache import LinkCache
from repro.core.policies import get_replacement_policy
from repro.errors import ConfigError
from tests.conftest import cached, make_entry


@pytest.fixture
def rng():
    return random.Random(21)


@pytest.fixture
def random_replacement():
    return get_replacement_policy("Random")


@pytest.fixture
def lfs():
    return get_replacement_policy("LFS")


class TestBasics:
    def test_insert_and_lookup(self, random_replacement, rng):
        cache = LinkCache(capacity=3, owner=0)
        assert cache.insert(make_entry(1), random_replacement, rng)
        assert 1 in cache
        assert cached(cache, 1).address == 1
        assert len(cache) == 1

    def test_own_address_refused(self, random_replacement, rng):
        cache = LinkCache(capacity=3, owner=7)
        assert not cache.insert(make_entry(7), random_replacement, rng)
        assert 7 not in cache

    def test_duplicate_refused_and_fields_untouched(self, random_replacement, rng):
        """Paper §2.2: re-received entries do not update cached fields."""
        cache = LinkCache(capacity=3, owner=0)
        cache.insert(make_entry(1, ts=5.0, num_files=10), random_replacement, rng)
        assert not cache.insert(
            make_entry(1, ts=99.0, num_files=999), random_replacement, rng
        )
        assert cached(cache, 1).ts == 5.0
        assert cached(cache, 1).num_files == 10

    def test_capacity_validated(self):
        # Zero is legal (heterogeneous CacheSizing can assign it);
        # negative capacities are always a bug.
        with pytest.raises(ConfigError):
            LinkCache(capacity=-1, owner=0)

    def test_evict(self, random_replacement, rng):
        cache = LinkCache(capacity=3, owner=0)
        cache.insert(make_entry(1), random_replacement, rng)
        assert cache.evict(1) is True
        assert cache.evict(1) is False
        assert 1 not in cache

    def test_entries_snapshot(self, random_replacement, rng):
        cache = LinkCache(capacity=5, owner=0)
        for a in (1, 2, 3):
            cache.insert(make_entry(a), random_replacement, rng)
        snapshot = cache.entries()
        snapshot.clear()
        assert len(cache) == 3  # snapshot list, not the live store

    def test_addresses(self, random_replacement, rng):
        cache = LinkCache(capacity=5, owner=0)
        cache.insert(make_entry(2), random_replacement, rng)
        cache.insert(make_entry(4), random_replacement, rng)
        assert sorted(cache.addresses()) == [2, 4]


class TestEvictionContest:
    def test_full_cache_evicts_policy_victim(self, lfs, rng):
        cache = LinkCache(capacity=2, owner=0)
        cache.insert(make_entry(1, num_files=100), lfs, rng)
        cache.insert(make_entry(2, num_files=5), lfs, rng)
        assert len(cache) == cache.capacity
        # Newcomer with 50 files beats the 5-file resident under LFS.
        assert cache.insert(make_entry(3, num_files=50), lfs, rng)
        assert 2 not in cache
        assert {1, 3} == set(cache.addresses())

    def test_losing_newcomer_rejected(self, lfs, rng):
        cache = LinkCache(capacity=2, owner=0)
        cache.insert(make_entry(1, num_files=100), lfs, rng)
        cache.insert(make_entry(2, num_files=50), lfs, rng)
        assert not cache.insert(make_entry(3, num_files=1), lfs, rng)
        assert set(cache.addresses()) == {1, 2}
        assert len(cache) == 2

    def test_size_never_exceeds_capacity(self, random_replacement, rng):
        cache = LinkCache(capacity=4, owner=0)
        for a in range(1, 50):
            cache.insert(make_entry(a), random_replacement, rng)
            assert len(cache) <= 4


class TestFieldUpdates:
    def test_touch_updates_ts(self, random_replacement, rng):
        cache = LinkCache(capacity=3, owner=0)
        cache.insert(make_entry(1, ts=0.0), random_replacement, rng)
        cache.touch(1, 9.0)
        assert cached(cache, 1).ts == 9.0

    def test_touch_missing_is_noop(self, random_replacement, rng):
        LinkCache(capacity=3, owner=0).touch(5, 1.0)  # must not raise

    def test_record_results(self, random_replacement, rng):
        cache = LinkCache(capacity=3, owner=0)
        cache.insert(make_entry(1), random_replacement, rng)
        cache.record_results(1, 3, 2.0)
        assert cached(cache, 1).num_res == 3
        assert cached(cache, 1).ts == 2.0

    def test_record_results_missing_is_noop(self, random_replacement, rng):
        LinkCache(capacity=3, owner=0).record_results(5, 1, 1.0)
