"""Tests for the adaptive-maintenance simulation."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams, SystemParams
from repro.extensions.adaptive_ping import AdaptivePingController
from repro.extensions.adaptive_ping_sim import AdaptiveMaintenanceSimulation


def build(multiplier, base_interval, seed=14, window=4, **factory_kwargs):
    # A small window so that even short-lived peers (heavy-churn runs
    # shorten the pingers' own sessions too) adapt within their lifetime.
    def factory(initial):
        return AdaptivePingController(
            initial, min_interval=2.0, max_interval=600.0,
            window=window, **factory_kwargs,
        )

    return AdaptiveMaintenanceSimulation(
        SystemParams(
            network_size=60, query_rate=0.0, lifespan_multiplier=multiplier
        ),
        ProtocolParams(cache_size=10, ping_interval=base_interval),
        seed=seed,
        health_sample_interval=None,
        controller_factory=factory,
    )


class TestWiring:
    def test_every_good_peer_gets_a_controller(self):
        sim = build(multiplier=1.0, base_interval=30.0)
        for peer in sim.live_good_peers:
            assert sim.controller_for(peer.address) is not None

    def test_controllers_start_at_protocol_interval(self):
        sim = build(multiplier=1.0, base_interval=45.0)
        assert sim.mean_ping_interval() == pytest.approx(45.0)

    def test_newborns_get_controllers(self):
        sim = build(multiplier=0.05, base_interval=30.0)
        sim.run(1200.0)
        newborns = [p for p in sim.live_good_peers if p.birth_time > 0]
        assert newborns
        assert all(
            sim.controller_for(p.address) is not None for p in newborns
        )

    def test_dead_peers_controllers_removed(self):
        sim = build(multiplier=0.05, base_interval=30.0)
        sim.run(1200.0)
        live = {p.address for p in sim.live_peers}
        assert set(sim._controllers.keys()) <= live


class TestAdaptation:
    def test_heavy_churn_tightens_intervals(self):
        sim = build(multiplier=0.1, base_interval=60.0)
        sim.run(3600.0)
        # Dead probes abound, so the fleet average falls below base.
        assert sim.mean_ping_interval() < 60.0

    def test_calm_network_relaxes_intervals(self):
        sim = build(multiplier=50.0, base_interval=10.0)
        sim.run(2400.0)
        # Essentially no churn: every ping lives, controllers relax.
        assert sim.mean_ping_interval() > 10.0

    def test_adaptation_no_worse_than_fixed_interval_under_churn(self):
        """Same terrible base interval under churn: the adaptive fleet's
        overlay must be at least as connected as the fixed fleet's."""
        from repro.core.network_sim import GuessSimulation

        adaptive = build(multiplier=0.1, base_interval=240.0)
        adaptive.run(2400.0)
        fixed = GuessSimulation(
            SystemParams(
                network_size=60, query_rate=0.0, lifespan_multiplier=0.1
            ),
            ProtocolParams(cache_size=10, ping_interval=240.0),
            seed=14,
            health_sample_interval=None,
        )
        fixed.run(2400.0)
        adaptive_lcc = adaptive.snapshot_overlay().largest_component_size()
        fixed_lcc = fixed.snapshot_overlay().largest_component_size()
        assert adaptive_lcc >= fixed_lcc


class TestPingsThroughTheBaseClass:
    def test_retries_stale_split_and_gossip_apply_to_adaptive_pings(self):
        """The adaptive cycle pings through ``GuessSimulation._do_ping``,
        so every layer armed on the base class is armed here too."""
        from repro.baselines.gossip import GossipPlan

        sim = AdaptiveMaintenanceSimulation(
            SystemParams(network_size=200, query_rate=0.0),
            ProtocolParams(cache_size=20, probe_retries=2),
            seed=3,
            gossip=GossipPlan(fanout=1, ttl=2),
        )
        sim.run(600.0)
        report = sim.report()
        assert report.dead_ping_evictions == report.dead_pings > 0
        assert report.stale_dead_pings > 0
        assert report.ping_retries > 0
        assert report.gossip_rumors > 0
