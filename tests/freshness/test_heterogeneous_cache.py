"""LinkCache behaviour at heterogeneous (CacheSizing-assigned) capacities."""

from __future__ import annotations

import random

import pytest

from repro.core.link_cache import LinkCache
from repro.core.params import ProtocolParams
from repro.core.policies import get_replacement_policy
from tests.conftest import make_entry
from tests.core.helpers import keep, make_peer


@pytest.fixture
def rng():
    return random.Random(33)


@pytest.fixture
def random_replacement():
    return get_replacement_policy("Random")


@pytest.fixture
def lfs():
    return get_replacement_policy("LFS")


class TestZeroSlotCache:
    def test_refuses_every_insert(self, random_replacement, rng):
        cache = LinkCache(capacity=0, owner=0)
        assert not cache.insert(make_entry(1), random_replacement, rng)
        assert len(cache) == 0

    def test_refusal_burns_no_policy_draw(self, random_replacement):
        """A zero-slot cache must not consult the replacement policy —
        an eviction contest with no residents would spend a Random draw
        deciding nothing, skewing downstream draw sequences between
        peers that differ only in assigned capacity."""
        cache = LinkCache(capacity=0, owner=0)
        rng = random.Random(9)
        before = rng.getstate()
        cache.insert(make_entry(1), random_replacement, rng)
        assert rng.getstate() == before

    def test_evict_and_iterate_safe(self, random_replacement, rng):
        cache = LinkCache(capacity=0, owner=0)
        assert cache.evict(1) is False
        assert cache.entries() == []
        assert list(cache.addresses()) == []


class TestOneSlotCache:
    def test_single_resident(self, random_replacement, rng):
        cache = LinkCache(capacity=1, owner=0)
        assert cache.insert(make_entry(1), random_replacement, rng)
        assert len(cache) == cache.capacity == 1

    def test_eviction_contest_is_head_to_head(self, lfs, rng):
        cache = LinkCache(capacity=1, owner=0)
        cache.insert(make_entry(1, num_files=5), lfs, rng)
        # LFS: 50-file newcomer displaces the 5-file resident.
        assert cache.insert(make_entry(2, num_files=50), lfs, rng)
        assert set(cache.addresses()) == {2}
        # ...and a 1-file newcomer loses to the 50-file resident.
        assert not cache.insert(make_entry(3, num_files=1), lfs, rng)
        assert set(cache.addresses()) == {2}
        assert len(cache) == 1


class TestMixedSizesUnderChurn:
    """Caches of different sizes evolving side by side stay bounded and
    keep insertion order through evictions and refills."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 13])
    def test_insert_evict_cycles_stay_bounded(
        self, capacity, random_replacement
    ):
        rng = random.Random(capacity)
        cache = LinkCache(capacity=capacity, owner=0)
        model: list[int] = []  # resident addresses, oldest insert first
        for step in range(400):
            addr = 1 + (step * 7) % 60
            if step % 3 == 2 and model:
                victim = sorted(model)[step % len(model)]
                assert cache.evict(victim) is True
                model.remove(victim)
            elif addr not in model:
                if cache.insert(make_entry(addr), random_replacement, rng):
                    # A full cache dropped one resident for the newcomer;
                    # survivors keep their order, the newcomer goes last.
                    model = [a for a in model if a in cache] + [addr]
            assert len(cache) == len(model) <= capacity
            assert list(cache.addresses()) == model
            assert [e.address for e in cache.entries()] == model

    def test_refill_keeps_insertion_order(self, random_replacement, rng):
        cache = LinkCache(capacity=4, owner=0)
        for a in (1, 2, 3, 4):
            cache.insert(make_entry(a), random_replacement, rng)
        cache.evict(1)
        cache.evict(3)
        cache.insert(make_entry(5), random_replacement, rng)
        cache.insert(make_entry(6), random_replacement, rng)
        # Survivors first (in original order), then re-fills.
        assert [e.address for e in cache.entries()] == [2, 4, 5, 6]
        assert list(cache.addresses()) == [2, 4, 5, 6]
        # A re-inserted address goes to the end, not back to its old place.
        cache.evict(2)
        cache.insert(make_entry(2), random_replacement, rng)
        assert list(cache.addresses()) == [4, 5, 6, 2]


class TestPeerCapacityOverride:
    def test_default_follows_protocol(self):
        protocol = ProtocolParams(cache_size=10)
        peer = make_peer(1, protocol=protocol)
        assert peer.link_cache.capacity == 10

    def test_override_wins(self):
        peer = make_peer(1, protocol=ProtocolParams(cache_size=10), cache_capacity=3)
        assert peer.link_cache.capacity == 3

    def test_zero_capacity_peer_still_answers(self):
        """A cacheless peer keeps serving: pongs are just empty."""
        peer = make_peer(1, cache_capacity=0)
        pong = peer.make_pong(peer.policies.ping_pong, 1.0)
        assert pong.entries == ()
        ok = keep(peer, make_entry(2))
        assert not ok
        assert len(peer.link_cache) == 0
