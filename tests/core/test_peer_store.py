"""PeerStore: the live-peer map, its flag columns and k-th sampling.

The store replaced a ``dict`` plus two ``set``s, so the property that
matters is exact agreement with that spelling: same birth-order
iteration, same k-th live peer, same membership answers, under any
interleaving of births and deaths.
"""

from __future__ import annotations

import random

from repro.core.peer_store import PeerStore
from tests.core.helpers import make_malicious_peer, make_peer


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
