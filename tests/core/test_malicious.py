"""Tests for malicious peers and the attack directory."""

from __future__ import annotations

import random

import pytest

from repro.core.malicious import (
    FAKE_NUM_FILES,
    FAKE_NUM_RES,
    AttackDirectory,
    MaliciousPeer,
)
from repro.core.messages import Ping, Query
from repro.core.params import BadPongBehavior
from repro.core.peer_store import PeerStore
from tests.core.helpers import make_malicious_peer, make_peer


@pytest.fixture
def rng():
    return random.Random(31)


def store_with(*births, deaths=()):
    """A store after ``births`` ((address, malicious), ascending), then ``deaths``."""
    store = PeerStore()
    for address, malicious in births:
        store.add(make_malicious_peer(address) if malicious else make_peer(address))
    for address in deaths:
        store.remove(address)
    return store


class TestAttackDirectory:
    def test_birth_and_death_rosters(self, rng):
        store = store_with((1, False), (2, True))
        directory = AttackDirectory(store)
        assert store.live_good == [1]
        assert store.live_malicious == [2]
        assert directory.sample_good(rng, 10) == [1]
        assert directory.sample_malicious(rng, 10, exclude=-1) == [2]
        store.remove(2)
        assert store.live_malicious == []
        assert directory.sample_malicious(rng, 10, exclude=-1) == []
        assert store.departed == [2]
        assert directory.sample_dead(rng, 2) == [2, 2]

    def test_sample_dead_uses_ghosts_before_any_death(self, rng):
        directory = AttackDirectory(PeerStore(), ghost_addresses=[100, 101])
        picks = directory.sample_dead(rng, 5)
        assert len(picks) == 5
        assert set(picks) <= {100, 101}

    def test_sample_dead_prefers_real_corpses(self, rng):
        store = store_with((7, False), deaths=[7])
        directory = AttackDirectory(store, ghost_addresses=[100])
        assert set(directory.sample_dead(rng, 4)) == {7}

    def test_sample_dead_empty_without_ghosts(self, rng):
        assert AttackDirectory(PeerStore()).sample_dead(rng, 3) == []

    def test_sample_malicious_excludes_self(self, rng):
        directory = AttackDirectory(store_with(*((a, True) for a in (1, 2, 3))))
        picks = directory.sample_malicious(rng, 10, exclude=2)
        assert 2 not in picks
        assert set(picks) == {1, 3}

    def test_sample_malicious_subset(self, rng):
        directory = AttackDirectory(store_with(*((a, True) for a in range(10))))
        picks = directory.sample_malicious(rng, 3, exclude=0)
        assert len(picks) == 3
        assert len(set(picks)) == 3

    def test_sample_good(self, rng):
        directory = AttackDirectory(store_with((1, False), (2, False)))
        assert set(directory.sample_good(rng, 10)) == {1, 2}

    def test_sample_zero(self, rng):
        directory = AttackDirectory(PeerStore(), ghost_addresses=[1])
        assert directory.sample_dead(rng, 0) == []
        assert directory.sample_malicious(rng, 0, exclude=0) == []
        assert directory.sample_good(rng, 0) == []

    def test_kept_roster_draws_what_sorting_per_pong_drew(self):
        """The store keeps each roster ascending; the oracle sorts per call.

        Same picks in the same order and the same stream state, for every
        roster size, with the excluded address in the roster and absent,
        across deaths and births between draws.  The oracle's rosters are
        sets kept here, beside the store, as the directory once kept them.
        """
        ours, oracle = random.Random(5), random.Random(5)
        store = PeerStore()
        directory = AttackDirectory(store)
        live_malicious: set[int] = set()
        live_good: set[int] = set()
        for size in range(41):
            if size:
                store.add(make_malicious_peer(3 * size))
                store.add(make_peer(3 * size + 1))
                live_malicious.add(3 * size)
                live_good.add(3 * size + 1)
            if size % 7 == 6:
                store.remove(3 * (size - 2))
                store.remove(3 * (size - 2) + 1)
                live_malicious.remove(3 * (size - 2))
                live_good.remove(3 * (size - 2) + 1)
            for k in range(9):
                for exclude in (3 * (size // 2), 3 * (size // 2) + 2, -1, 999):
                    pool = [a for a in sorted(live_malicious) if a != exclude]
                    expected = list(pool) if k >= len(pool) else oracle.sample(pool, k)
                    assert directory.sample_malicious(ours, k, exclude) == expected
                pool = sorted(live_good)
                expected = pool if k >= len(pool) else oracle.sample(pool, k)
                assert directory.sample_good(ours, k) == expected
            assert ours.getstate() == oracle.getstate(), size


class TestMaliciousPeer:
    def test_advertises_fake_files(self):
        peer = make_malicious_peer(1)
        assert peer.num_files == FAKE_NUM_FILES
        assert peer.malicious is True

    def test_returns_no_results(self):
        peer = make_malicious_peer(1)
        _, reply = peer.receive_probe(Query(sender=2, target_file=1), 1.0)
        assert reply.num_results == 0

    def test_probes_received_counts_each_probe_once(self):
        peer = make_malicious_peer(1)
        peer.receive_probe(Query(sender=2, target_file=1), 1.0)
        peer.receive_probe(Query(sender=3, target_file=2), 1.0)
        peer.receive_probe(Ping(sender=4), 1.0)
        assert peer.probes_received == 3

    def test_dead_behavior_pong(self):
        directory = AttackDirectory(
            store_with((55, False), deaths=[55]), ghost_addresses=[900]
        )
        peer = make_malicious_peer(
            1, behavior=BadPongBehavior.DEAD, directory=directory
        )
        _, pong = peer.receive_probe(Ping(sender=2), 1.0)
        assert pong.entries
        assert all(e.address == 55 for e in pong.entries)
        assert all(e.num_files == FAKE_NUM_FILES for e in pong.entries)
        assert all(e.num_res == FAKE_NUM_RES for e in pong.entries)

    def test_bad_behavior_pong_points_at_accomplices(self):
        directory = AttackDirectory(store_with(*((a, True) for a in (10, 11, 12))))
        peer = make_malicious_peer(
            10, behavior=BadPongBehavior.BAD, directory=directory
        )
        _, pong = peer.receive_probe(Ping(sender=2), 1.0)
        addresses = {e.address for e in pong.entries}
        assert addresses <= {11, 12}
        assert 10 not in addresses

    def test_good_behavior_pong_points_at_good_peers(self):
        directory = AttackDirectory(store_with((5, False)))
        peer = make_malicious_peer(
            1, behavior=BadPongBehavior.GOOD, directory=directory
        )
        _, pong = peer.receive_probe(Ping(sender=2), 1.0)
        assert {e.address for e in pong.entries} == {5}

    def test_poisoned_entries_look_fresh(self):
        directory = AttackDirectory(PeerStore(), ghost_addresses=[99])
        peer = make_malicious_peer(
            1, behavior=BadPongBehavior.DEAD, directory=directory
        )
        _, pong = peer.receive_probe(Ping(sender=2), 42.0)
        assert all(e.ts == 42.0 for e in pong.entries)

    def test_query_reply_carries_poisoned_pong(self):
        directory = AttackDirectory(PeerStore(), ghost_addresses=[99])
        peer = make_malicious_peer(
            1, behavior=BadPongBehavior.DEAD, directory=directory
        )
        _, reply = peer.receive_probe(Query(sender=2, target_file=3), 1.0)
        assert reply.num_results == 0
        assert all(e.address == 99 for e in reply.pong.entries)
