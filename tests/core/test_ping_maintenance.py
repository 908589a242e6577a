"""Tests for the maintenance-ping cycle (paper §2.2) via GuessSimulation."""

from __future__ import annotations

import pytest

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from tests.conftest import cached


def build_sim(**protocol_overrides):
    protocol = ProtocolParams(cache_size=10, **protocol_overrides)
    sim = GuessSimulation(
        SystemParams(network_size=30, query_rate=0.0),
        protocol,
        seed=2,
        health_sample_interval=None,
    )
    return sim


class TestDoPing:
    def test_dead_target_evicted_and_counted(self):
        sim = build_sim()
        pinger = sim.live_good_peers[0]
        victim_address = next(iter(pinger.link_cache.addresses()))
        # Kill the victim out-of-band: unregister it from the transport.
        sim.transport.unregister(victim_address)
        sim._do_ping(pinger, now=1.0)
        # The PingProbe policy is Random; ping until the corpse is hit.
        for _ in range(100):
            if victim_address not in pinger.link_cache:
                break
            sim._do_ping(pinger, now=1.0)
        assert victim_address not in pinger.link_cache
        assert sim.report().dead_pings >= 1

    def test_live_target_ts_refreshed(self):
        sim = build_sim(ping_probe="LRU")  # stalest first: deterministic
        pinger = sim.live_good_peers[0]
        target = pinger.choose_ping_target()
        sim._do_ping(pinger, now=5.0)
        assert cached(pinger.link_cache, target.address).ts == 5.0

    def test_pong_entries_imported(self):
        sim = build_sim()
        pinger = sim.live_good_peers[0]
        before = set(pinger.link_cache.addresses())
        # Ping repeatedly; pongs should eventually teach new addresses
        # (the cache holds 10 of 29 possible peers, so new ones exist).
        for i in range(50):
            sim._do_ping(pinger, now=float(i))
        after = set(pinger.link_cache.addresses())
        assert after - before, "pings should import pong entries"

    def test_empty_cache_ping_is_noop(self):
        sim = build_sim()
        pinger = sim.live_good_peers[0]
        for address in list(pinger.link_cache.addresses()):
            pinger.link_cache.evict(address)
        sim._do_ping(pinger, now=1.0)  # must not raise
        assert sim.report().pings_sent == 0

    def test_refused_ping_evicts_without_backoff(self):
        sim = build_sim()
        pinger = sim.live_good_peers[0]
        target_address = next(iter(pinger.link_cache.addresses()))
        target = sim.store.get(target_address)
        # Exhaust the target's capacity for this second.
        for _ in range(200):
            if not target._limiter.try_record(1.0):
                break
        # Force the pinger to ping exactly this target by clearing others.
        for address in list(pinger.link_cache.addresses()):
            if address != target_address:
                pinger.link_cache.evict(address)
        sim._do_ping(pinger, now=1.0)
        assert target_address not in pinger.link_cache
        assert sim.report().dead_pings == 0  # refusal is not a death

    def test_refused_ping_kept_with_backoff(self):
        sim = build_sim(do_backoff=True)
        pinger = sim.live_good_peers[0]
        target_address = next(iter(pinger.link_cache.addresses()))
        target = sim.store.get(target_address)
        for _ in range(200):
            if not target._limiter.try_record(1.0):
                break
        for address in list(pinger.link_cache.addresses()):
            if address != target_address:
                pinger.link_cache.evict(address)
        sim._do_ping(pinger, now=1.0)
        assert target_address in pinger.link_cache


class TestPingCycleScheduling:
    def test_pings_happen_roughly_at_rate(self):
        sim = build_sim(ping_interval=10.0)
        sim.run(300.0)
        report = sim.report()
        expected = 30 * 300.0 / 10.0
        assert report.pings_sent == pytest.approx(expected, rel=0.25)

    def test_dead_peers_stop_pinging(self):
        sim = GuessSimulation(
            SystemParams(
                network_size=20, query_rate=0.0, lifespan_multiplier=0.05
            ),
            ProtocolParams(cache_size=5, ping_interval=5.0),
            seed=4,
            health_sample_interval=None,
        )
        sim.run(1000.0)
        # If corpses kept pinging, the engine would keep their recurring
        # events alive forever; pending events stay bounded instead.
        assert sim.engine.pending < 20 * 6
