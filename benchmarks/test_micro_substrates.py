"""Microbenchmarks for the hot substrate paths.

These measure the per-operation cost of the data structures the
simulator leans on, with proper statistical repetition.
"""

from __future__ import annotations

import random

from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.policies import get_ordering_policy, get_replacement_policy
from repro.network.unionfind import UnionFind
from repro.sim.engine import Simulator
from repro.sim.windows import BucketedRateLimiter


def test_engine_event_throughput(benchmark):
    """Schedule + fire 10k no-op events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run_until(101.0)
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 10_000


def test_link_cache_insert_churn(benchmark):
    """Policy-evicted inserts into a full cache."""
    policy = get_replacement_policy("LFS")
    rng = random.Random(0)
    entries = [
        CacheEntry(address=i, num_files=rng.randrange(1000))
        for i in range(1, 2001)
    ]

    def run():
        cache = LinkCache(capacity=100, owner=0)
        for entry in entries:
            cache.insert(entry, policy, rng)
        return len(cache)

    size = benchmark(run)
    assert size == 100


def test_policy_ordering_cost(benchmark):
    """Ordering 1000 entries under MFS, as a cache's ranking sorts them."""
    policy = get_ordering_policy("MFS")
    rng = random.Random(0)
    entries = [
        CacheEntry(address=i, num_files=rng.randrange(10_000))
        for i in range(1000)
    ]
    ordered = benchmark(sorted, entries, key=policy.rank)
    assert len(ordered) == 1000


def test_unionfind_component_merge(benchmark):
    """Union 5k random edges over 2k nodes and read the LCC."""
    rng = random.Random(0)
    edges = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(5000)]

    def run():
        uf = UnionFind(range(2000))
        for a, b in edges:
            uf.union(a, b)
        return uf.largest_component_size()

    lcc = benchmark(run)
    assert lcc > 1000  # 5k random edges connect most of 2k nodes


def test_rate_limiter_throughput(benchmark):
    """Out-of-order bucket recording."""
    rng = random.Random(0)
    times = [rng.uniform(0, 1000) for _ in range(20_000)]

    def run():
        limiter = BucketedRateLimiter(window=1.0, limit=100)
        admitted = 0
        for t in times:
            if limiter.try_record(t):
                admitted += 1
        return admitted

    admitted = benchmark(run)
    assert 0 < admitted <= 20_000
