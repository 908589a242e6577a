"""Tests for the GuessSimulation orchestrator."""

from __future__ import annotations

import random

import pytest

from repro.core.messages import Query
from repro.core.network_sim import GuessSimulation
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.errors import ConfigError, SimulationError
from repro.resilience.scenarios import ChurnStorm, ScenarioPlan


def small_sim(**kwargs):
    system = kwargs.pop(
        "system", SystemParams(network_size=50, query_rate=0.02)
    )
    protocol = kwargs.pop("protocol", ProtocolParams(cache_size=10))
    kwargs.setdefault("seed", 3)
    return GuessSimulation(system, protocol, **kwargs)


class TestBootstrap:
    def test_population_size(self):
        sim = small_sim()
        assert len(sim.live_peers) == 50

    def test_caches_seeded(self):
        sim = small_sim()
        sizes = [len(p.link_cache) for p in sim.live_peers]
        assert all(s >= 1 for s in sizes)

    def test_seed_entries_point_at_live_peers(self):
        sim = small_sim()
        live = {p.address for p in sim.live_peers}
        for peer in sim.live_peers:
            assert set(peer.link_cache.addresses()) <= live

    def test_no_self_pointers(self):
        sim = small_sim()
        for peer in sim.live_peers:
            assert peer.address not in peer.link_cache

    def test_seed_size_respects_cache_capacity(self):
        sim = GuessSimulation(
            SystemParams(network_size=500, query_rate=0.0),
            ProtocolParams(cache_size=3),
            seed=1,
        )
        assert all(len(p.link_cache) <= 3 for p in sim.live_peers)

    def test_malicious_fraction(self):
        sim = GuessSimulation(
            SystemParams(
                network_size=100, percent_bad_peers=20.0, query_rate=0.0
            ),
            ProtocolParams(cache_size=10),
            seed=2,
        )
        bad = sum(1 for p in sim.live_peers if p.malicious)
        assert bad == 20


class TestChurn:
    def test_population_constant_under_churn(self):
        sim = small_sim(
            system=SystemParams(
                network_size=50, query_rate=0.0, lifespan_multiplier=0.05
            )
        )
        sim.run(2000.0)
        assert len(sim.live_peers) == 50

    def test_births_match_deaths(self):
        sim = small_sim(
            system=SystemParams(
                network_size=50, query_rate=0.0, lifespan_multiplier=0.05
            )
        )
        sim.run(2000.0)
        report = sim.report()
        assert report.deaths > 0
        # Every recorded death spawns a birth in the same instant.
        assert report.births == report.deaths

    def test_dead_addresses_never_live_again(self):
        sim = small_sim(
            system=SystemParams(
                network_size=50, query_rate=0.0, lifespan_multiplier=0.05
            )
        )
        sim.run(1500.0)
        live = {p.address for p in sim.live_peers}
        assert sim.store.departed
        assert live.isdisjoint(sim.store.departed)
        # DEAD pongs draw from exactly that list once a peer has died.
        picks = sim.directory.sample_dead(random.Random(0), 20)
        assert set(picks) <= set(sim.store.departed)

    def test_newborns_have_seeded_caches(self):
        sim = small_sim(
            system=SystemParams(
                network_size=50, query_rate=0.0, lifespan_multiplier=0.05
            )
        )
        sim.run(2000.0)
        newborns = [p for p in sim.live_peers if p.birth_time > 0]
        assert newborns
        assert any(len(p.link_cache) > 0 for p in newborns)

    def test_storm_victim_whose_natural_death_fires_later_is_booked_once(self):
        # A peer leaves the store exactly once, and is harvested right
        # there: the natural-death event a storm victim leaves behind finds
        # the store empty-handed and books nothing (loads accumulate, so a
        # second harvest would double them).
        end = 600.0
        sim = small_sim(
            system=SystemParams(
                network_size=80, query_rate=0.02, lifespan_multiplier=0.05
            ),
            scenarios=ScenarioPlan(
                storms=(ChurnStorm(start=30.0, width=10.0, fraction=0.9),)
            ),
        )
        sim.run(29.0)
        natural = {peer: peer.death_time for peer in sim.live_peers}
        sim.run(end - 29.0)
        outlived = [
            peer
            for peer, death_time in natural.items()
            if peer.death_time < death_time <= end  # forced early, event fired
        ]
        assert len(outlived) >= 10
        report = sim.report()
        assert report.deaths == report.births == len(report.loads) - 80
        booked = [report.loads[peer.address] for peer in outlived]
        assert booked == [peer.probes_received for peer in outlived]
        assert sum(booked) > 0


class TestDeterminism:
    def test_same_seed_same_results(self):
        reports = []
        for _ in range(2):
            sim = small_sim(seed=42)
            sim.run(400.0)
            reports.append(sim.report())
        a, b = reports
        assert a.queries == b.queries
        assert a.total_probes == b.total_probes
        assert a.satisfied_queries == b.satisfied_queries
        assert a.loads == b.loads

    def test_different_seed_different_results(self):
        totals = set()
        for seed in (1, 2, 3):
            sim = small_sim(seed=seed)
            sim.run(400.0)
            totals.add(sim.report().total_probes)
        assert len(totals) > 1


class TestQueriesAndMetrics:
    def test_queries_recorded(self):
        sim = small_sim()
        sim.run(600.0)
        report = sim.report()
        assert report.queries > 0
        assert report.total_probes >= report.queries

    def test_warmup_discards_early_queries(self):
        sim_all = small_sim(seed=5, warmup=0.0)
        sim_all.run(600.0)
        sim_warm = small_sim(seed=5, warmup=300.0)
        sim_warm.run(600.0)
        assert sim_warm.report().queries < sim_all.report().queries

    def test_health_samples_collected(self):
        sim = small_sim(health_sample_interval=50.0)
        sim.run(600.0)
        report = sim.report()
        assert len(report.health_samples) >= 10
        assert 0.0 <= report.mean_fraction_live <= 1.0

    def test_health_sampling_disabled(self):
        sim = small_sim(health_sample_interval=None)
        sim.run(300.0)
        assert sim.report().health_samples == ()

    @pytest.mark.parametrize("interval", [0.0, -5.0])
    def test_nonpositive_health_sample_interval_rejected(self, interval):
        # Rejected at construction: interval 0 would reschedule the
        # sampler at ``now`` forever, so ``run`` would never return.
        with pytest.raises(ConfigError, match="health_sample_interval"):
            small_sim(health_sample_interval=interval)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigError, match="warmup"):
            small_sim(warmup=-1.0)

    def test_report_only_once(self):
        sim = small_sim()
        sim.run(100.0)
        sim.report()
        with pytest.raises(SimulationError):
            sim.report()

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            small_sim().run(-1.0)

    def test_loads_cover_all_peers_ever(self):
        sim = small_sim(
            system=SystemParams(
                network_size=50, query_rate=0.02, lifespan_multiplier=0.1
            )
        )
        sim.run(800.0)
        report = sim.report()
        ever_born = report.births + 50
        assert len(report.loads) == ever_born


class TestOverlaySnapshot:
    def test_snapshot_covers_live_peers(self):
        sim = small_sim()
        sim.run(200.0)
        snapshot = sim.snapshot_overlay()
        assert len(snapshot.live) == 50

    def test_seeded_network_is_connected(self):
        sim = GuessSimulation(
            SystemParams(network_size=200, query_rate=0.0),
            ProtocolParams(cache_size=20),
            seed=9,
        )
        assert sim.snapshot_overlay().largest_component_size() == 200

    def test_maintained_network_stays_connected(self):
        sim = GuessSimulation(
            SystemParams(network_size=100, query_rate=0.0),
            ProtocolParams(cache_size=20, ping_interval=10.0),
            seed=9,
        )
        sim.run(1200.0)
        lcc = sim.snapshot_overlay().largest_component_size()
        assert lcc >= 95  # near-full connectivity with tight maintenance


class TestMaliciousComposition:
    def test_malicious_peers_respond_but_never_answer(self):
        sim = GuessSimulation(
            SystemParams(
                network_size=60,
                percent_bad_peers=25.0,
                query_rate=0.05,
                bad_pong_behavior=BadPongBehavior.DEAD,
            ),
            ProtocolParams(cache_size=10),
            seed=4,
        )
        sim.run(600.0)
        bad = [peer for peer in sim.live_peers if peer.malicious]
        assert any(peer.probes_received for peer in bad)
        for peer in bad:
            for target in range(1, 50):
                query = Query(sender=0, target_file=target)
                accepted, reply = peer.receive_probe(query, sim.now)
                assert not accepted or reply.num_results == 0

    def test_roster_matches_peers(self):
        sim = GuessSimulation(
            SystemParams(network_size=60, percent_bad_peers=25.0, query_rate=0.0),
            ProtocolParams(cache_size=10),
            seed=4,
        )
        sim.run(500.0)
        live_bad = {p.address for p in sim.live_peers if p.malicious}
        live_good = {p.address for p in sim.live_peers if not p.malicious}
        assert sim.store.live_malicious == sorted(live_bad)
        assert sim.store.live_good == sorted(live_good)
        # The directory hands out the whole roster when k exceeds it.
        rng = random.Random(0)
        assert sim.directory.sample_malicious(rng, 60, exclude=-1) == sorted(live_bad)
        assert sim.directory.sample_good(rng, 60) == sorted(live_good)
