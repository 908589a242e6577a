"""Every stored cache entry has exactly one owner.

A pong shows the responder's own resident objects and whoever keeps one
clones it (``core/entry.py``), so no ``CacheEntry`` object may ever be
reachable from two link caches: one peer's ``touch`` would move the
other's TS.  The unit tests state the rule at each keeper
(``import_pong_to_link_cache``, the query cache's admission,
``seed_rumor``); this walks whole runs — every path that stores an entry,
including friend seeding, introductions, query-cache graduation, gossip
imports and freshness refreshes — and looks for a shared object.
"""

from __future__ import annotations

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from tests.integration import test_determinism as pins


def assert_no_entry_has_two_owners(sim: GuessSimulation) -> None:
    owner_of = {}
    for peer in sim.store.live_peers():
        for entry in peer.link_cache.iter_entries():
            assert id(entry) not in owner_of, (
                f"entry for {entry.address} is resident at both "
                f"{owner_of[id(entry)]} and {peer.address}"
            )
            owner_of[id(entry)] = peer.address
    assert len(owner_of) > len(sim.store)  # the walk saw real caches


def test_paper_default_run_shares_no_entry():
    sim = GuessSimulation(SystemParams(network_size=300), ProtocolParams(), seed=7)
    sim.run(60.0)
    assert sim.transport.probes_sent > 10_000
    assert_no_entry_has_two_owners(sim)


def test_all_armed_run_shares_no_entry():
    recipe = pins.TestAllArmedPin  # module import: the class is not re-collected
    sim = GuessSimulation(recipe.SYSTEM, recipe.PROTOCOL, seed=7, **recipe.PLANS)
    sim.run(200.0)
    report = sim.report()
    assert report.gossip_pushes > 0 and report.freshness_refresh_imports > 0
    assert_no_entry_has_two_owners(sim)
