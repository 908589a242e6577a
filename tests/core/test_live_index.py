"""LiveAddressIndex: Fenwick-backed order-statistic sampling.

The index exists to replace ``list(peers_dict.keys())[k]`` in the
simulation's friend sampling, so the property that matters is *exact*
agreement with that spelling — same ``k`` in, same address out — under
arbitrary interleavings of births and deaths, across compactions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.live_index import LiveAddressIndex


class TestBasics:
    def test_empty(self):
        index = LiveAddressIndex()
        assert len(index) == 0
        assert 1 not in index
        with pytest.raises(IndexError):
            index.kth(0)

    def test_add_and_kth(self):
        index = LiveAddressIndex()
        for address in (10, 20, 30):
            index.add(address)
        assert len(index) == 3
        assert [index.kth(k) for k in range(3)] == [10, 20, 30]
        assert 20 in index

    def test_double_add_rejected(self):
        index = LiveAddressIndex()
        index.add(1)
        with pytest.raises(ValueError):
            index.add(1)

    def test_discard(self):
        index = LiveAddressIndex()
        for address in (1, 2, 3):
            index.add(address)
        assert index.discard(2) is True
        assert index.discard(2) is False
        assert len(index) == 2
        assert [index.kth(k) for k in range(2)] == [1, 3]
        assert 2 not in index

    def test_kth_bounds(self):
        index = LiveAddressIndex()
        index.add(5)
        with pytest.raises(IndexError):
            index.kth(1)
        with pytest.raises(IndexError):
            index.kth(-1)

    def test_readd_after_discard_goes_to_end(self):
        # Matches dict semantics: del + reinsert moves a key to the end.
        index = LiveAddressIndex()
        for address in (1, 2, 3):
            index.add(address)
        index.discard(1)
        index.add(1)
        assert [index.kth(k) for k in range(3)] == [2, 3, 1]


class TestDictEquivalence:
    """Randomized model check against the list-rebuild spelling."""

    def test_matches_dict_key_order_under_churn(self):
        rng = random.Random(1234)
        index = LiveAddressIndex()
        model: dict = {}
        next_address = 0
        for _ in range(5000):
            action = rng.random()
            if action < 0.55 or not model:
                next_address += 1
                model[next_address] = True
                index.add(next_address)
            else:
                victim = list(model.keys())[rng.randrange(len(model))]
                del model[victim]
                assert index.discard(victim)
            assert len(index) == len(model)
            if model:
                keys = list(model.keys())
                k = rng.randrange(len(keys))
                assert index.kth(k) == keys[k]
        assert [index.kth(k) for k in range(len(index))] == list(model.keys())

    def test_compaction_bounds_slots_and_preserves_order(self):
        index = LiveAddressIndex()
        for address in range(1000):
            index.add(address)
        # Kill the front 900; tombstones must trigger compaction.
        for address in range(900):
            index.discard(address)
        assert len(index) == 100
        assert len(index._order) < 2 * len(index) + 1
        assert [index.kth(k) for k in range(100)] == list(range(900, 1000))
