"""The mediator's one hop handler: hop 0 at a death, then interest paths.

The mediator reaches the simulation only through ``engine``,
``transport``, ``store`` and ``collector``, so these tests hand it a
namespace holding real ones and five hand-wired peers::

    victim 1 caches A=2 and B=3
    A=2 caches the victim and C=4     (interested: will purge, may forward)
    B=3 caches D=5 only               (not interested: the path ends here)
    C=4 caches the victim and D=5
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.peer_store import PeerStore
from repro.freshness import FreshnessMediator, FreshnessPlan
from repro.metrics.collectors import MetricsCollector
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from tests.conftest import make_entry
from tests.core.helpers import keep, make_peer

VICTIM, A, B, C, D = 1, 2, 3, 4, 5
CACHES = {VICTIM: (A, B), A: (VICTIM, C), B: (D,), C: (VICTIM, D), D: ()}


def departed_network(depth):
    """The network above, just after the victim's death was processed."""
    sim = SimpleNamespace(
        engine=Simulator(),
        transport=Transport(),
        store=PeerStore(),
        collector=MetricsCollector(),
    )
    mediator = FreshnessMediator.from_plan(
        FreshnessPlan(notify_budget=3, depth=depth), RngRegistry(1), sim
    )
    for address, cached in CACHES.items():
        peer = make_peer(address, seed=address)
        for other in cached:
            assert keep(peer, make_entry(other))
        sim.store.add(peer)
        sim.transport.register(address, peer)
    victim = sim.store.remove(VICTIM)
    sim.transport.unregister(VICTIM, time=0.0)
    mediator.notify_departure(victim)
    return sim


def counts(sim):
    report = sim.collector.build_report()
    return (
        report.freshness_notices,
        report.freshness_purges,
        report.freshness_refresh_imports,
    )


def test_depth_one_notifies_contacts_and_schedules_nothing():
    sim = departed_network(depth=1)
    assert sim.engine.pending == 0
    assert counts(sim) == (2, 1, 0)
    assert VICTIM not in sim.store.get(A).link_cache


def test_only_receivers_that_purged_forward():
    sim = departed_network(depth=2)
    # A held the victim and forwards; B did not, so its branch ends.
    assert sim.engine.pending == 1
    sim.engine.run_all()
    assert VICTIM not in sim.store.get(C).link_cache
    assert D in sim.store.get(B).link_cache


def test_dead_victim_imports_no_refresh_but_a_live_carrier_does():
    sim = departed_network(depth=2)
    # A's ack carried a non-empty pong (it still caches C) — nobody is
    # left at hop 0 to ingest it.
    assert counts(sim) == (2, 1, 0)
    sim.engine.run_all()
    # Hop 1: A warns C, and ingests the D that C's ack piggybacks.
    assert counts(sim) == (3, 2, 1)
    assert D in sim.store.get(A).link_cache


def test_carrier_that_dies_before_its_hop_drops_the_notice():
    sim = departed_network(depth=2)
    sim.store.remove(A)
    sim.engine.run_all()
    assert counts(sim) == (2, 1, 0)
    assert VICTIM in sim.store.get(C).link_cache
