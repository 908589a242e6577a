"""PeerStore: the live-peer map, its rosters, its flag columns and k-th sampling.

The store replaced a ``dict`` plus two ``set``s, a Fenwick-backed index
of the dict's insertion order, and the attack directory's rosters, so
the property that matters is exact agreement with that spelling: same
birth-order iteration, same k-th live peer, same sorted rosters, same
death-order list of the departed, same membership answers, under any
interleaving of births and deaths.
"""

from __future__ import annotations

import random

import pytest

from repro.core.peer_store import PeerStore
from tests.core.helpers import make_malicious_peer, make_peer


class TestKthLive:
    def test_empty(self):
        store = PeerStore()
        assert len(store) == 0
        assert 1 not in store
        with pytest.raises(IndexError):
            store.kth_live(0)

    def test_add_and_kth(self):
        store = PeerStore()
        peers = [make_peer(address) for address in (10, 20, 30)]
        for peer in peers:
            store.add(peer)
        assert len(store) == 3
        assert [store.kth_live(k) for k in range(3)] == peers
        assert 20 in store

    def test_double_add_rejected(self):
        store = PeerStore()
        store.add(make_peer(5))
        for address in (5, 4):
            with pytest.raises(ValueError):
                store.add(make_peer(address))
        assert list(store.addresses()) == [5]

    def test_add_below_the_reserve_rejected(self):
        store = PeerStore(reserve=64)
        with pytest.raises(ValueError):
            store.add(make_peer(63))
        assert len(store) == 0

    def test_remove(self):
        store = PeerStore()
        peers = [make_peer(address) for address in (1, 2, 3)]
        for peer in peers:
            store.add(peer)
        assert store.remove(2) is peers[1]
        assert store.remove(2) is None
        assert len(store) == 2
        assert [store.kth_live(k) for k in range(2)] == [peers[0], peers[2]]
        assert 2 not in store

    def test_kth_bounds(self):
        store = PeerStore()
        store.add(make_peer(5))
        with pytest.raises(IndexError):
            store.kth_live(1)
        with pytest.raises(IndexError):
            store.kth_live(-1)

    def test_readd_after_remove_rejected(self):
        # Addresses are never recycled: a departed address coming back
        # would land mid-list and move every later k-th live peer.
        store = PeerStore()
        for address in (1, 2, 3):
            store.add(make_peer(address))
        store.remove(1)
        with pytest.raises(ValueError):
            store.add(make_peer(1))
        assert list(store.addresses()) == [2, 3]


class TestAgainstDictModel:
    def test_birth_order_and_kth_live_across_removals(self):
        rng = random.Random(42)
        store = PeerStore()
        model = {}
        next_address = 1
        for _ in range(600):
            if model and rng.random() < 0.4:
                victim = rng.choice(list(model))
                assert store.remove(victim) is model.pop(victim)
            else:
                peer = make_peer(next_address)
                store.add(peer)
                model[next_address] = peer
                next_address += rng.randint(1, 3)  # leave address gaps
            assert len(store) == len(model)
            assert list(store.values()) == list(model.values())
            assert store.live_peers() == list(model.values())
            assert list(store.addresses()) == list(model)
            if model:
                k = rng.randrange(len(model))
                assert store.kth_live(k) is list(model.values())[k]

    def test_matches_dict_key_order_under_churn(self):
        rng = random.Random(1234)
        store = PeerStore()
        model: dict = {}
        departed = []
        next_address = 0
        for _ in range(5000):
            if rng.random() < 0.55 or not model:
                next_address += 1
                malicious = rng.random() < 0.3
                model[next_address] = (
                    make_malicious_peer(next_address)
                    if malicious else make_peer(next_address)
                )
                store.add(model[next_address])
            else:
                victim = list(model.keys())[rng.randrange(len(model))]
                assert store.remove(victim) is model.pop(victim)
                departed.append(victim)
            assert len(store) == len(model)
            if model:
                keys = list(model.keys())
                k = rng.randrange(len(keys))
                assert store.kth_live(k) is model[keys[k]]
        assert [store.kth_live(k) for k in range(len(store))] == list(model.values())
        assert store.live_malicious == sorted(
            a for a, peer in model.items() if peer.malicious
        )
        assert store.live_good == sorted(
            a for a, peer in model.items() if not peer.malicious
        )
        assert store.departed == departed

    def test_mass_death_preserves_order(self):
        store = PeerStore()
        for address in range(1000):
            store.add(make_peer(address))
        # Kill the front 900: the survivors keep their relative order.
        for address in range(900):
            store.remove(address)
        assert len(store) == 100
        assert [store.kth_live(k).address for k in range(100)] == list(
            range(900, 1000)
        )
        assert store.departed == list(range(900))

    def test_remove_absent_address_is_none(self):
        store = PeerStore()
        store.add(make_peer(3))
        assert store.remove(2) is None
        assert store.remove(3) is not None
        assert store.remove(3) is None
        assert len(store) == 0

    def test_get_and_contains(self):
        store = PeerStore()
        peer = make_peer(5)
        store.add(peer)
        assert store.get(5) is peer and 5 in store
        assert store.get(6) is None and 6 not in store


class TestColumns:
    def test_bits_after_add_and_remove(self):
        store = PeerStore()
        store.add(make_peer(1))
        store.add(make_malicious_peer(2))
        alive, malicious = store.alive_column, store.malicious_column
        assert (alive[1], malicious[1]) == (1, 0)
        assert (alive[2], malicious[2]) == (1, 1)
        store.remove(2)
        # The role outlives the peer: "live and good" stays answerable
        # for a dead address as alive[a] and not malicious[a].
        assert (alive[2], malicious[2]) == (0, 1)
        assert (alive[1], malicious[1]) == (1, 0)

    def test_columns_grow_to_cover_any_added_address(self):
        store = PeerStore()
        store.add(make_peer(5000))
        assert store.alive_column[5000] == 1
        assert store.alive_column[4999] == 0

    def test_ghost_reserve_is_in_bounds_and_dead(self):
        store = PeerStore(reserve=64)
        assert len(store) == 0
        for ghost in (0, 63):
            assert store.alive_column[ghost] == 0
            assert store.malicious_column[ghost] == 0
            assert ghost not in store
        store.add(make_peer(64))
        assert store.alive_column[64] == 1
        assert store.alive_column[63] == 0
