"""Tests for overlay structural analysis."""

from __future__ import annotations

import random

import pytest

from repro.analysis.overlay_stats import OverlayStats
from repro.errors import TopologyError
from repro.network.overlay import OverlaySnapshot


def star_snapshot(n=10):
    """Peer 0 is in everyone's cache (a hub); spokes point only at 0."""
    return OverlaySnapshot.from_caches(
        live=range(n),
        cache_contents={i: [0] for i in range(1, n)},
    )


def chain_snapshot(n=6):
    return OverlaySnapshot.from_caches(
        live=range(n),
        cache_contents={i: [i + 1] for i in range(n - 1)},
    )


class TestDegrees:
    def test_in_degrees_identify_hub(self):
        stats = OverlayStats(star_snapshot(10))
        top = stats.most_referenced(1)
        assert top == [(0, 9)]

    def test_most_referenced_order_and_tiebreak(self):
        snap = OverlaySnapshot.from_caches(
            live=[1, 2, 3, 4],
            cache_contents={1: [3, 4], 2: [3, 4]},
        )
        stats = OverlayStats(snap)
        assert stats.most_referenced(2) == [(3, 2), (4, 2)]

    def test_empty_snapshot_quantiles(self):
        snap = OverlaySnapshot.from_caches(live=[], cache_contents={})
        stats = OverlayStats(snap)
        assert stats.in_degree_quantiles((0.5,)) == {0.5: 0.0}


class TestRemovalExperiments:
    def test_targeted_removal_shatters_star(self):
        stats = OverlayStats(star_snapshot(10))
        # Removing the hub (top 10%) leaves 9 isolated spokes.
        assert stats.targeted_removal_lcc(0.1) == 1

    def test_targeted_removal_zero_fraction(self):
        stats = OverlayStats(star_snapshot(10))
        assert stats.targeted_removal_lcc(0.0) == 10

    def test_targeted_beats_random_on_hub_topologies(self):
        stats = OverlayStats(star_snapshot(50))
        rng = random.Random(5)
        targeted = stats.targeted_removal_lcc(0.02)   # kills the hub
        randoms = [
            stats.random_removal_lcc(0.02, random.Random(i))
            for i in range(10)
        ]
        # Random removal usually misses the hub, so the expected
        # surviving LCC is far larger.
        assert targeted < max(randoms)

    def test_random_removal_counts(self):
        stats = OverlayStats(chain_snapshot(10))
        rng = random.Random(1)
        assert stats.random_removal_lcc(0.0, rng) == 10

    def test_invalid_fraction(self):
        stats = OverlayStats(chain_snapshot(3))
        with pytest.raises(TopologyError):
            stats.targeted_removal_lcc(1.0)
        with pytest.raises(TopologyError):
            stats.random_removal_lcc(-0.1, random.Random(0))
