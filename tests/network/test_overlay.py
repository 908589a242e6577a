"""Tests for conceptual-overlay extraction and connectivity."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.network.overlay import OverlaySnapshot


class TestConstruction:
    def test_filters_dead_targets(self):
        snap = OverlaySnapshot.from_caches(
            live=[1, 2], cache_contents={1: [2, 99], 2: []}
        )
        assert snap.edges[1] == (2,)

    def test_dead_owner_rejected(self):
        with pytest.raises(TopologyError):
            OverlaySnapshot.from_caches(live=[1], cache_contents={9: [1]})

    def test_empty_network(self):
        snap = OverlaySnapshot.from_caches(live=[], cache_contents={})
        assert snap.largest_component_size() == 0


class TestConnectivity:
    def test_fully_connected_chain(self):
        snap = OverlaySnapshot.from_caches(
            live=range(5),
            cache_contents={i: [i + 1] for i in range(4)},
        )
        assert snap.largest_component_size() == 5

    def test_two_components(self):
        snap = OverlaySnapshot.from_caches(
            live=range(6),
            cache_contents={0: [1], 1: [2], 3: [4]},
        )
        assert snap.largest_component_size() == 3

    def test_isolated_peers_are_singletons(self):
        snap = OverlaySnapshot.from_caches(
            live=[1, 2, 3], cache_contents={}
        )
        assert snap.largest_component_size() == 1

    def test_direction_ignored_for_components(self):
        # One-way pointer still joins the weak component.
        snap = OverlaySnapshot.from_caches(
            live=[1, 2], cache_contents={1: [2]}
        )
        assert snap.largest_component_size() == 2
