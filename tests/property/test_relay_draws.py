"""A relay hop picks exactly what the list comprehension it replaced picked.

A gossip hop (``GossipRelay.pick_targets``) and an invalidation hop
(``FreshnessMediator.pick_contacts``) take a carrier's candidates from
``LinkCache.addresses()`` and drop the ``seen`` ones in C.  The oracle is
the spelling they replaced, written here: every resident's ``address``
read off ``entries()``, the unseen ones listed, then ``random.sample`` of
the budget on the layer's own stream.  Same picks, in the same order, and
the same stream state afterwards, or every armed pin moves.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gossip import GossipPlan, GossipRelay
from repro.core.entry import CacheEntry
from repro.freshness import FreshnessPlan
from repro.freshness.mediator import FreshnessMediator
from repro.sim.rng import RngRegistry
from tests.conftest import cache_of

NO_SIM = None  # picking reaches no engine, transport or peer


def reference_pick(cache, seen, budget, rng):
    fresh = [entry.address for entry in cache.entries() if entry.address not in seen]
    if len(fresh) <= budget:
        return fresh
    return rng.sample(fresh, budget)


@st.composite
def hops(draw):
    """A carrier's cache (any insertion order), a ``seen`` set that mixes
    residents with strangers, a budget and a seed."""
    addresses = draw(st.lists(st.integers(0, 10_000), unique=True, max_size=130))
    residents = (
        draw(st.lists(st.sampled_from(addresses), unique=True)) if addresses else []
    )
    strangers = draw(st.sets(st.integers(10_001, 10_100), max_size=5))
    seen = set(residents) | strangers
    budget = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return cache_of([CacheEntry(a) for a in addresses]), seen, budget, seed


@given(hops())
@settings(max_examples=300, deadline=None)
def test_pick_targets_is_the_list_comprehension_sample(hop):
    cache, seen, fanout, seed = hop
    relay = GossipRelay(GossipPlan(fanout=fanout, ttl=1), RngRegistry(seed), NO_SIM)
    oracle = RngRegistry(seed).stream("gossip:relay")
    before = set(seen)
    picked = relay.pick_targets(cache.addresses(), seen)
    assert picked == reference_pick(cache, seen, fanout, oracle)
    assert relay._rng.getstate() == oracle.getstate()
    assert seen == before


@given(hops())
@settings(max_examples=300, deadline=None)
def test_pick_contacts_is_the_list_comprehension_sample(hop):
    cache, seen, budget, seed = hop
    plan = FreshnessPlan(notify_budget=budget, depth=1)
    mediator = FreshnessMediator(plan, RngRegistry(seed), NO_SIM)
    oracle = RngRegistry(seed).stream("freshness:notify")
    before = set(seen)
    picked = mediator.pick_contacts(cache.addresses(), seen)
    assert picked == reference_pick(cache, seen, budget, oracle)
    assert mediator._notify_rng.getstate() == oracle.getstate()
    assert seen == before
