"""Tests for random-friend seeding (paper §5.1).

A newborn copies its friend's link cache and learns the friend itself;
the MR* ingestion rule applies to the copied entries.
"""

from __future__ import annotations

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from tests.conftest import cached


def build_sim(**protocol_kwargs):
    return GuessSimulation(
        SystemParams(network_size=40, query_rate=0.0),
        ProtocolParams(cache_size=15, **protocol_kwargs),
        seed=6,
        health_sample_interval=None,
    )


class TestSeedFromFriend:
    def test_newborn_knows_friend_and_its_cache(self):
        sim = build_sim()
        friend = sim.live_good_peers[0]
        friend_known = set(friend.link_cache.addresses())
        newborn = sim._spawn_peer(10.0, malicious=False, friend=friend)
        newborn_known = set(newborn.link_cache.addresses())
        assert friend.address in newborn_known
        # Everything else it knows came from the friend's cache.
        assert newborn_known - {friend.address} <= friend_known

    def test_copies_are_independent(self):
        sim = build_sim()
        friend = sim.live_good_peers[0]
        newborn = sim._spawn_peer(10.0, malicious=False, friend=friend)
        shared = [
            a for a in newborn.link_cache.addresses()
            if a in friend.link_cache and a != friend.address
        ]
        assert shared, "expected at least one copied entry"
        address = shared[0]
        cached(newborn.link_cache, address).num_res = 999
        assert cached(friend.link_cache, address).num_res != 999

    def test_reset_num_results_applies_to_copied_entries(self):
        sim = build_sim(reset_num_results=True)
        friend = sim.live_good_peers[0]
        # Give the friend's entries nonzero NumRes to be distrusted.
        for entry in friend.link_cache.entries():
            entry.num_res = 7
        newborn = sim._spawn_peer(10.0, malicious=False, friend=friend)
        for address in newborn.link_cache.addresses():
            if address == friend.address:
                continue
            assert cached(newborn.link_cache, address).num_res == 0

    def test_without_reset_num_results_hearsay_kept(self):
        sim = build_sim()
        friend = sim.live_good_peers[0]
        for entry in friend.link_cache.entries():
            entry.num_res = 7
        newborn = sim._spawn_peer(10.0, malicious=False, friend=friend)
        copied = [
            cached(newborn.link_cache, a)
            for a in newborn.link_cache.addresses()
            if a != friend.address
        ]
        assert copied
        assert all(entry.num_res == 7 for entry in copied)

    def test_friend_entry_fields(self):
        sim = build_sim()
        friend = sim.live_good_peers[0]
        newborn = sim._spawn_peer(25.0, malicious=False, friend=friend)
        entry = cached(newborn.link_cache, friend.address)
        assert entry is not None
        assert entry.ts == 25.0
        assert entry.num_files == friend.num_files

    def test_seeding_respects_capacity(self):
        sim = GuessSimulation(
            SystemParams(network_size=40, query_rate=0.0),
            ProtocolParams(cache_size=3),
            seed=6,
            health_sample_interval=None,
        )
        friend = sim.live_good_peers[0]
        newborn = sim._spawn_peer(10.0, malicious=False, friend=friend)
        assert len(newborn.link_cache) <= 3
