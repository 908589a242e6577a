"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

# Wall-clock deadlines make property tests flaky on loaded CI boxes;
# correctness, not per-example latency, is what these suites check.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.params import ProtocolParams, SystemParams
from repro.core.policies import (
    PolicySet,
    get_ordering_policy,
    get_replacement_policy,
)
from repro.core.query_cache import QueryCache


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_system() -> SystemParams:
    """A small, fast system configuration."""
    return SystemParams(network_size=60, query_rate=0.05)


@pytest.fixture
def default_protocol() -> ProtocolParams:
    """Table 2 defaults with a small cache for fast tests."""
    return ProtocolParams(cache_size=20)


@pytest.fixture
def random_policies() -> PolicySet:
    """An all-Random policy set."""
    return PolicySet.from_protocol(ProtocolParams())


def make_entry(
    address: int, ts: float = 0.0, num_files: int = 0, num_res: int = 0
) -> CacheEntry:
    """Terse entry constructor used across cache/policy tests."""
    return CacheEntry(
        address=address, ts=ts, num_files=num_files, num_res=num_res
    )


def make_query_cache(
    policy: str = "Random", link_entries=(), *, owner: int = 0,
    rng: random.Random | None = None,
) -> QueryCache:
    """A query's scratch cache under the named QueryProbe policy."""
    return QueryCache(
        owner, get_ordering_policy(policy), rng or random.Random(13),
        list(link_entries),
    )


def cached(cache, address: int) -> CacheEntry | None:
    """The entry a link cache holds for ``address``, or None."""
    return next((e for e in cache.iter_entries() if e.address == address), None)


def cache_of(entries) -> LinkCache:
    """A link cache holding exactly ``entries``, in order (no contest ran).

    Where a policy's order over a list is read: a key-based policy's
    ranking lives in the cache, a Random one draws from its entries.
    """
    cache = LinkCache(len(entries), owner=None)
    fill = get_replacement_policy("Random")
    for entry in entries:
        assert cache.insert(entry, fill, random.Random(0))
    return cache


def victim_end(policy, entries):
    """The entry a full cache of ``entries`` would evict under key-based
    ``policy`` (its ranking's last), or None for no entries."""
    return next(reversed(cache_of(entries).ranking(policy).entries), None)


def contest(policy, residents, candidate, rng) -> CacheEntry:
    """The victim of one eviction contest: ``candidate`` offered to a full
    cache of ``residents`` under replacement ``policy``."""
    cache = LinkCache(len(residents), owner=None)
    for entry in residents:
        cache.insert(entry, policy, rng)
    if not cache.insert(candidate, policy, rng):
        return candidate
    return next(e for e in residents if e.address not in cache)
