"""Tests for the Gnutella flooding / fixed-extent baseline."""

from __future__ import annotations

import random

import pytest

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import GnutellaOverlay, fixed_extent_tradeoff
from repro.errors import TopologyError, WorkloadError
from repro.workload.content import ContentModel


@pytest.fixture
def rng():
    return random.Random(44)


def fixed_view(libraries):
    return PopulationView(
        libraries=tuple(frozenset(lib) for lib in libraries),
        content=ContentModel(catalog_size=100),
    )


class TestGnutellaOverlay:
    def test_connected_by_construction(self, rng):
        overlay = GnutellaOverlay(100, degree=4, rng=rng)
        reached = overlay.flood_reach(0, ttl=100)
        assert len(reached) == 99  # everyone except the source

    def test_degrees_near_target(self, rng):
        overlay = GnutellaOverlay(100, degree=4, rng=rng)
        degrees = [len(overlay.neighbors(v)) for v in range(100)]
        assert min(degrees) >= 2
        assert sum(degrees) / len(degrees) == pytest.approx(4, abs=1.5)

    def test_ttl_zero_reaches_nobody(self, rng):
        overlay = GnutellaOverlay(20, degree=3, rng=rng)
        assert overlay.flood_reach(0, ttl=0) == []

    def test_ttl_one_reaches_neighbors(self, rng):
        overlay = GnutellaOverlay(20, degree=3, rng=rng)
        assert set(overlay.flood_reach(5, ttl=1)) == overlay.neighbors(5)

    def test_reach_grows_with_ttl(self, rng):
        overlay = GnutellaOverlay(200, degree=4, rng=rng)
        sizes = [len(overlay.flood_reach(0, ttl)) for ttl in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_flood_query_counts_messages_and_results(self, rng):
        overlay = GnutellaOverlay(10, degree=3, rng=rng)
        view = fixed_view([{42}] * 10)
        messages, results = overlay.flood_query(view, 0, 42, ttl=10)
        assert messages == 9
        assert results == 9

    def test_flood_query_view_size_mismatch(self, rng):
        overlay = GnutellaOverlay(10, degree=3, rng=rng)
        with pytest.raises(TopologyError):
            overlay.flood_query(fixed_view([{1}] * 5), 0, 1, ttl=2)

    def test_invalid_construction(self, rng):
        with pytest.raises(TopologyError):
            GnutellaOverlay(1, degree=2, rng=rng)
        with pytest.raises(TopologyError):
            GnutellaOverlay(10, degree=1, rng=rng)
        with pytest.raises(TopologyError):
            GnutellaOverlay(5, degree=5, rng=rng)

    def test_invalid_flood_args(self, rng):
        overlay = GnutellaOverlay(10, degree=3, rng=rng)
        with pytest.raises(TopologyError):
            overlay.flood_reach(99, 1)
        with pytest.raises(TopologyError):
            overlay.flood_reach(0, -1)



class TestFloodTransmissions:
    """Per-peer receipts: every message a TTL-bounded flood transmits."""

    def test_ttl_zero_sends_nothing(self, rng):
        overlay = GnutellaOverlay(20, degree=3, rng=rng)
        assert overlay.flood_receipts(0, 0) == {}

    def test_ttl_one_sends_degree_messages(self, rng):
        overlay = GnutellaOverlay(20, degree=3, rng=rng)
        receipts = overlay.flood_receipts(5, 1)
        assert set(receipts) == overlay.neighbors(5)
        assert set(receipts.values()) == {1}

    def test_transmissions_cover_reach_plus_duplicates(self, rng):
        overlay = GnutellaOverlay(100, degree=4, rng=rng)
        receipts = overlay.flood_receipts(0, 4)
        # Every reached peer received the query; the rest are duplicates.
        assert set(receipts) == set(overlay.flood_reach(0, 4))

    def test_duplicates_appear_in_cyclic_topologies(self, rng):
        # A full flood over a connected graph with cycles must generate
        # duplicate deliveries (this is Gnutella's waste).
        overlay = GnutellaOverlay(50, degree=4, rng=rng)
        assert max(overlay.flood_receipts(0, 50).values()) > 1

    def test_amplification_grows_with_ttl(self, rng):
        # Transmissions per message the source itself sends (the §3.3
        # DoS lever; GUESS's non-forwarding design pins it at 1).
        overlay = GnutellaOverlay(200, degree=4, rng=rng)
        degree = len(overlay.neighbors(0))
        amp2 = sum(overlay.flood_receipts(0, 2).values()) / degree
        amp5 = sum(overlay.flood_receipts(0, 5).values()) / degree
        assert amp5 > amp2 >= 1.0

    def test_invalid_args(self, rng):
        overlay = GnutellaOverlay(10, degree=3, rng=rng)
        with pytest.raises(TopologyError):
            overlay.flood_receipts(99, 1)
        with pytest.raises(TopologyError):
            overlay.flood_receipts(0, -1)


class TestFixedExtentSearch:
    """One target's exact unsatisfaction at one extent (Figure 8)."""

    def test_unsat_probability_exact(self):
        view = fixed_view([{42}, {}, {}, {}])
        [(extent, unsat)] = fixed_extent_tradeoff(view, [42], [2])
        assert extent == 2
        assert unsat == pytest.approx(0.5)

    def test_nonexistent_item_never_satisfied(self):
        view = fixed_view([{1}] * 10)
        assert fixed_extent_tradeoff(view, [99], [10]) == [(10, 1.0)]

    def test_extent_bounds(self):
        view = fixed_view([{1}] * 5)
        with pytest.raises(WorkloadError):
            fixed_extent_tradeoff(view, [1], [0])
        with pytest.raises(WorkloadError):
            fixed_extent_tradeoff(view, [1], [6])

class TestTradeoffCurve:
    def test_unsat_decreases_with_extent(self, rng):
        view = PopulationView.synthesize(300, rng)
        targets = view.draw_query_targets(rng, 200)
        curve = fixed_extent_tradeoff(view, targets, [1, 10, 100, 300])
        rates = [rate for _, rate in curve]
        assert rates == sorted(rates, reverse=True)

    def test_full_extent_floor_is_no_owner_rate(self, rng):
        view = PopulationView.synthesize(300, rng)
        targets = view.draw_query_targets(rng, 200)
        curve = dict(fixed_extent_tradeoff(view, targets, [300]))
        no_owner = sum(1 for t in targets if view.owners_of(t) == 0)
        assert curve[300] == pytest.approx(no_owner / len(targets))

    def test_validation(self, rng):
        view = fixed_view([{1}] * 5)
        with pytest.raises(WorkloadError):
            fixed_extent_tradeoff(view, [], [1])
        with pytest.raises(WorkloadError):
            fixed_extent_tradeoff(view, [1], [10])
