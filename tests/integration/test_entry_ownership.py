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
from tests.property.test_policy_properties import _oracle_rank


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


def test_keyed_rankings_stay_sorted_through_whole_runs():
    # The owner is also the only writer: a resident's TS and NumRes change
    # through its ``LinkCache``, which keeps every ranking it holds in
    # order.  A write that bypasses it (the query loop updating the entry
    # it popped, say) leaves a ranking stale, and a fresh sort tells.
    recipe = pins.TestKeyedPin
    for plans in ({}, pins.TestAllArmedPin.PLANS):
        sim = GuessSimulation(recipe.SYSTEM, recipe.PROTOCOL, seed=7, **plans)
        sim.run(200.0)
        policies = sim.policies
        roles = (policies.query_pong, policies.ping_probe, policies.ping_pong,
                 policies.replacement)
        checked = 0
        for peer in sim.store.live_peers():
            for policy in roles:
                held = peer.link_cache.ranking(policy).entries
                fresh = sorted(
                    peer.link_cache.entries(), key=_oracle_rank(policy.name),
                    reverse=True,
                )
                assert [id(e) for e in held] == [id(e) for e in fresh]
                checked += len(held)
        assert checked > len(sim.store)
        assert_no_entry_has_two_owners(sim)
