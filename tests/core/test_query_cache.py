"""Tests for the per-query scratch cache (admission rule + best-first pop)."""

from __future__ import annotations

import random

import pytest

from tests.conftest import make_entry
from tests.conftest import make_query_cache as make_cache


def drain(cache):
    return [entry.address for entry in iter(cache.pop, None)]


def add(cache, *entries):
    """Admit ``entries`` as one pong at time 0.0; the addresses kept."""
    return [entry.address for entry in cache.add(entries, False, 0.0)]


class TestAdmission:
    def test_add_and_lookup(self):
        cache = make_cache()
        assert add(cache, make_entry(1)) == [1]
        assert add(cache, make_entry(1)) == []
        assert len(cache) == 1

    def test_owner_never_admitted(self):
        cache = make_cache(owner=7)
        assert add(cache, make_entry(7)) == []
        assert len(cache) == 0

    def test_excluded_addresses_never_admitted(self):
        # The link-cache contents are candidates already: a pong entry
        # duplicating one is refused, so no address is probed twice.
        cache = make_cache(link_entries=[make_entry(3), make_entry(4)])
        assert add(cache, make_entry(3), make_entry(5)) == [5]
        assert sorted(drain(cache)) == [3, 4, 5]

    def test_duplicate_not_readmitted(self):
        cache = make_cache()
        assert add(cache, make_entry(1), make_entry(1)) == [1]
        assert add(cache, make_entry(1)) == []
        assert len(cache) == 1

    def test_seen_address_not_admitted(self):
        cache = make_cache(link_entries=[make_entry(9)])
        assert cache.pop().address == 9
        # Probed (popped) link entries stay seen for the rest of the query.
        assert add(cache, make_entry(9)) == []
        assert len(cache) == 0

    @pytest.mark.parametrize("policy", ["Random", "MFS"])
    @pytest.mark.parametrize("reset", [False, True])
    def test_a_kept_entry_is_the_caches_own_clone(self, policy, reset):
        # A pong shows entries: the cache keeps a clone stamped with the
        # import time (NumRes zeroed under MR*), in pong order, and
        # returns exactly the clones it pools.
        shown = [make_entry(a, ts=2.0, num_files=a, num_res=4) for a in (5, 3, 5, 0)]
        cache = make_cache(policy, [make_entry(3)])
        kept = cache.add(shown, reset, 8.0)
        assert [e.address for e in kept] == [5]
        (clone,) = kept
        assert clone is not shown[0]
        assert (clone.ts, clone.num_files, clone.born) == (2.0, 5, 8.0)
        assert clone.num_res == (0 if reset else 4)
        assert shown[0].num_res == 4 and shown[0].born == 0.0
        popped = list(iter(cache.pop, None))
        assert any(entry is clone for entry in popped)


class TestConsumption:
    def test_pop_removes_and_marks_seen(self):
        cache = make_cache()
        add(cache, make_entry(1))
        entry = cache.pop()
        assert entry.address == 1
        assert len(cache) == 0
        assert add(cache, make_entry(1)) == []  # seen now

    def test_pop_missing_returns_none(self):
        assert make_cache(policy="Random").pop() is None
        assert make_cache(policy="MFS").pop() is None

    def test_len_counts_unpopped_candidates(self):
        cache = make_cache("MR", [make_entry(1), make_entry(2)])
        add(cache, make_entry(3))
        assert len(cache) == 3
        cache.pop()
        assert len(cache) == 2

    def test_key_policy_ties_break_on_lowest_address(self):
        cache = make_cache(
            link_entries=[make_entry(a, num_files=5) for a in (4, 2, 9)],
            policy="MFS",
        )
        add(cache, make_entry(1, num_files=5))
        assert drain(cache) == [1, 2, 4, 9]

    def test_keys_are_taken_at_the_query_issue_time(self):
        # An entry's rank is fixed when it is pooled: refreshing the
        # entry afterwards (as a probe of it does) cannot reorder pops.
        old, new = make_entry(1, ts=10.0), make_entry(2, ts=20.0)
        cache = make_cache(link_entries=[old, new], policy="MRU")
        old.ts = 99.0
        assert drain(cache) == [2, 1]


@pytest.mark.parametrize("policy", ["Random", "MFS", "MRU", "LRU", "MR"])
def test_one_pass_seeding_pops_in_the_order_of_one_add_per_entry(policy):
    """The constructor's bulk build is ``add`` of the link entries, faster.

    Same candidates, same pops, same draws from the policy stream — what
    lets ``execute_query`` seed the cache without ~100 method calls.
    """
    source = random.Random(5)
    entries = [
        make_entry(
            address,
            ts=float(source.randrange(4)),
            num_files=source.randrange(4),
            num_res=source.randrange(3),
        )
        for address in source.sample(range(1, 200), 60)
    ]
    late = [make_entry(address, num_files=2) for address in (300, 301, 7)]
    seeded = make_cache(link_entries=entries, policy=policy)
    added = make_cache(policy=policy)
    assert add(added, *entries) == [entry.address for entry in entries]
    pops = []
    for cache in (seeded, added):
        order = [cache.pop().address for _ in range(20)]
        add(cache, *late)
        pops.append(order + drain(cache))
    assert pops[0] == pops[1]
    assert len(pops[0]) == len({e.address for e in entries + late})
    assert seeded._rng.getstate() == added._rng.getstate()
