"""Every Random-policy index draw is the ``randrange`` draw it replaced.

``repro.sim.rng.randbelow`` is ``randrange``'s rule in one frame; the
simulator's per-event draws (a link cache's ping target and eviction
contest, a query cache's pops) go through it.  The oracle here is the
stdlib: the same value, the same element and the same generator state
afterwards, or a pong differs and every golden pin moves.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import CacheEntry
from repro.core.policies import get_ordering_policy, get_replacement_policy
from repro.sim.rng import randbelow
from tests.conftest import cache_of, contest, make_query_cache

seeds = st.integers(min_value=0, max_value=2**63 - 1)

#: Every n up to one past 2**12, then each larger power of two and its
#: neighbours, where ``getrandbits`` spans several 32-bit words.
RANGES = list(range(1, 4098)) + [
    2**b + d for b in range(13, 70) for d in (-1, 0, 1)
]


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_randbelow_is_randrange_value_and_state(seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    for n in RANGES:
        assert randbelow(ours, n) == stdlib.randrange(n), n
        assert ours.getstate() == stdlib.getstate(), n


def _population(size):
    return [CacheEntry(address=a) for a in range(size)]


@given(seeds, st.integers(min_value=0, max_value=150))
@settings(max_examples=60, deadline=None)
def test_random_select_best_and_victim_are_one_randrange(seed, size):
    """The ping target over ``size`` residents, and the victim of the
    contest a candidate holds with ``size - 1`` residents (a full cache)."""
    entries = _population(size)
    ours, stdlib = random.Random(seed), random.Random(seed)
    picked = cache_of(entries).select_best(get_ordering_policy("Random"), ours)
    assert picked is (entries[stdlib.randrange(size)] if entries else None)
    assert ours.getstate() == stdlib.getstate()
    if size < 2:
        return  # no resident to contest: a zero-slot cache draws nothing
    *residents, candidate = entries
    victim = contest(get_replacement_policy("Random"), residents, candidate, ours)
    assert victim is entries[stdlib.randrange(size)]
    assert ours.getstate() == stdlib.getstate()


@given(seeds, st.integers(min_value=1, max_value=150))
@settings(max_examples=60, deadline=None)
def test_random_contest_is_one_randrange_over_residents_and_candidate(seed, size):
    """As ``LinkCache.admit`` holds it, five times over: the victim is the
    element ``randrange`` picks from the residents (in cache order) plus
    the candidate, and the candidate takes a winner's slot at the end."""
    residents = _population(size)
    cache = cache_of(residents)
    ours, stdlib = random.Random(seed), random.Random(seed)
    policy = get_replacement_policy("Random")
    for address in range(10_000, 10_005):
        candidate = CacheEntry(address=address)
        contestants = cache.entries() + [candidate]
        victim = contestants[stdlib.randrange(len(contestants))]
        assert cache.insert(candidate, policy, ours) is (victim is not candidate)
        assert cache.entries() == [e for e in contestants if e is not victim]
    assert ours.getstate() == stdlib.getstate()


@given(seeds, st.lists(st.integers(min_value=0, max_value=4), max_size=40))
@settings(max_examples=80, deadline=None)
def test_random_query_cache_pops_in_the_randrange_swap_remove_order(seed, adds):
    """Seeds, then pops with ``adds[i]`` admissions before pop i."""
    seeded = _population(10)
    ours, stdlib = random.Random(seed), random.Random(seed)
    cache = make_query_cache("Random", seeded, rng=ours)
    bag = list(seeded)
    fresh = iter(range(100, 1_000))
    for count in adds:
        pong = [CacheEntry(address=next(fresh)) for _ in range(count)]
        kept = cache.add(pong, False, 0.0)
        assert [e.address for e in kept] == [e.address for e in pong]
        bag += kept
        popped = cache.pop()
        if not bag:
            assert popped is None
            continue
        index = stdlib.randrange(len(bag))
        bag[index], bag[-1] = bag[-1], bag[index]
        assert popped is bag.pop()
    assert ours.getstate() == stdlib.getstate()
