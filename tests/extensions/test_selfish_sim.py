"""Tests for the selfish-minority simulation."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams, SystemParams
from repro.errors import ConfigError
from repro.extensions.selfish import ProbeBudget
from repro.extensions.selfish_sim import SelfishGuessSimulation


def build(percent_selfish=20.0, budget_factory=None, seed=9, **system_kw):
    system = SystemParams(
        network_size=100, query_rate=0.05, **system_kw
    )
    return SelfishGuessSimulation(
        system,
        ProtocolParams(cache_size=20),
        seed=seed,
        percent_selfish=percent_selfish,
        budget_factory=budget_factory,
    )


class TestComposition:
    def test_selfish_fraction_roughly_respected(self):
        sim = build(percent_selfish=30.0)
        assert 15 <= len(sim._selfish) <= 45

    def test_zero_percent_means_none(self):
        sim = build(percent_selfish=0.0)
        assert sim._selfish == set()

    def test_selfish_are_good_peers(self):
        sim = build(percent_selfish=30.0, percent_bad_peers=20.0)
        bad = {p.address for p in sim.live_peers if p.malicious}
        assert sim._selfish.isdisjoint(bad)

    def test_invalid_percent(self):
        with pytest.raises(ConfigError):
            build(percent_selfish=150.0)

    def test_dead_selfish_removed_from_roster(self):
        sim = build(percent_selfish=30.0, lifespan_multiplier=0.05)
        sim.run(1200.0)
        live = {p.address for p in sim.live_peers}
        assert sim._selfish <= live


class TestBehaviour:
    def test_selfish_queries_separate_from_honest_report(self):
        sim = build(percent_selfish=20.0)
        sim.run(600.0)
        selfish = sim.selfish_report()
        honest = sim.report()
        assert selfish.queries > 0
        assert honest.queries > 0
        # The base report must not contain the selfish blasts: its mean
        # probes/query stays protocol-sized even though selfish queries
        # average far higher.
        assert selfish.probes_per_query > honest.probes_per_query

    def test_selfish_response_time_near_zero(self):
        sim = build(percent_selfish=20.0)
        sim.run(600.0)
        selfish = sim.selfish_report()
        assert selfish.mean_response_time is not None
        assert selfish.mean_response_time < 0.3  # one wave

    def test_payments_cap_selfish_probes(self):
        capped = build(
            percent_selfish=20.0,
            budget_factory=lambda: ProbeBudget(refill_rate=0.05, capacity=10),
            seed=5,
        )
        capped.run(600.0)
        uncapped = build(percent_selfish=20.0, seed=5)
        uncapped.run(600.0)
        assert (
            capped.selfish_report().probes_per_query
            < uncapped.selfish_report().probes_per_query
        )

    def test_empty_budget_produces_broke_queries(self):
        sim = build(
            percent_selfish=20.0,
            budget_factory=lambda: ProbeBudget(
                refill_rate=0.0, capacity=1.0, initial=0
            ),
        )
        sim.run(600.0)
        selfish = sim.selfish_report()
        assert selfish.broke_queries == selfish.queries

    def test_selfish_report_rates(self):
        sim = build(percent_selfish=20.0)
        sim.run(600.0)
        selfish = sim.selfish_report()
        assert 0 <= selfish.satisfied <= selfish.queries

    def test_no_selfish_report_is_empty(self):
        sim = build(percent_selfish=0.0)
        sim.run(300.0)
        selfish = sim.selfish_report()
        assert selfish.queries == selfish.satisfied == 0


class TestBurstInheritance:
    """Selfish bursts run the base burst loop; only the query differs."""

    @staticmethod
    def record_selfish_queries(sim, monkeypatch):
        """Log ``(burst event time, peer, query timestamp)`` per selfish query."""
        from repro.extensions import selfish_sim

        calls = []
        real = selfish_sim.execute_selfish_query

        def spy(peer, target, transport, now, **kwargs):
            calls.append((sim.engine.now, peer.address, now))
            return real(peer, target, transport, now, **kwargs)

        monkeypatch.setattr(selfish_sim, "execute_selfish_query", spy)
        return calls

    def test_flash_crowd_warps_selfish_bursts(self, monkeypatch):
        from repro.resilience.scenarios import FlashCrowd, ScenarioPlan

        sim = SelfishGuessSimulation(
            SystemParams(network_size=100, query_rate=0.05),
            ProtocolParams(cache_size=20),
            seed=9,
            percent_selfish=100.0,
            scenarios=ScenarioPlan(crowds=(FlashCrowd(200.0, 400.0, 10.0),)),
        )
        calls = self.record_selfish_queries(sim, monkeypatch)
        sim.run(600.0)
        bursts = {(event, peer) for event, peer, _ in calls}
        inside = sum(1 for event, _ in bursts if 200.0 <= event < 400.0)
        after = sum(1 for event, _ in bursts if 400.0 <= event < 600.0)
        assert inside > 3 * after > 0

    def test_queries_of_one_selfish_burst_advance_in_time(self, monkeypatch):
        sim = build(percent_selfish=100.0)
        calls = self.record_selfish_queries(sim, monkeypatch)
        sim.run(600.0)
        by_burst = {}
        for event, peer, stamp in calls:
            by_burst.setdefault((event, peer), []).append(stamp)
        multi = [stamps for stamps in by_burst.values() if len(stamps) > 1]
        assert multi
        for (event, _), stamps in by_burst.items():
            assert stamps[0] == event
            assert all(a < b for a, b in zip(stamps, stamps[1:]))
