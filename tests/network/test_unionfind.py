"""Tests for the union-find forest."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.network.unionfind import UnionFind


def sizes(uf, items):
    """Component sizes over ``items``, ascending, read through ``find``."""
    return sorted(Counter(uf.find(item) for item in items).values())


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(range(5))
        assert len(uf) == 5
        assert sizes(uf, range(5)) == [1] * 5
        assert uf.largest_component_size() == 1

    def test_union_merges(self):
        uf = UnionFind()
        assert uf.union(1, 2) is True
        assert uf.find(1) == uf.find(2)
        assert sizes(uf, [1, 2]) == [2]

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union(1, 2)
        assert uf.union(2, 1) is False

    def test_transitive_connectivity(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("c")

    def test_component_sizes_exact(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert sizes(uf, range(6)) == [1, 2, 3]
        assert uf.find(0) == uf.find(2) != uf.find(4) == uf.find(3)
        assert uf.largest_component_size() == 3

    def test_union_adds_unknown_items(self):
        uf = UnionFind()
        uf.union(10, 20)
        assert 10 in uf and 20 in uf

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find(99)

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add("x")
        uf.add("x")
        assert len(uf) == 1

    def test_empty_largest_component(self):
        assert UnionFind().largest_component_size() == 0

    def test_chain_of_unions(self):
        uf = UnionFind()
        for i in range(99):
            uf.union(i, i + 1)
        assert sizes(uf, range(100)) == [100]
        assert uf.largest_component_size() == 100
        assert uf.find(0) == uf.find(99)

    def test_two_clusters_then_bridge(self):
        uf = UnionFind()
        for i in range(4):
            uf.union(i, i + 1)        # 0-5 chain
        for i in range(10, 14):
            uf.union(i, i + 1)        # 10-14 chain
        members = [*range(5), *range(10, 15)]
        assert sizes(uf, members) == [5, 5]
        uf.union(0, 10)
        assert sizes(uf, members) == [10]
        assert uf.largest_component_size() == 10
