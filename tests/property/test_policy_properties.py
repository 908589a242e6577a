"""Property-based tests for the policy framework."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import CacheEntry
from repro.core.policies import (
    REPLACEMENTS,
    get_ordering_policy,
    get_replacement_policy,
)
from tests.conftest import cache_of, contest, make_query_cache, victim_end

# Unique addresses so ties break deterministically but entries differ.
entry_lists = st.lists(
    st.builds(
        CacheEntry,
        address=st.integers(min_value=0, max_value=10_000),
        ts=st.floats(min_value=0, max_value=1e4, allow_nan=False),
        num_files=st.integers(min_value=0, max_value=10_000),
        num_res=st.integers(min_value=0, max_value=100),
    ),
    max_size=40,
    unique_by=lambda e: e.address,
)

deterministic_policies = st.sampled_from(["MRU", "LRU", "MFS", "MR"])
all_policies = st.sampled_from(["Random", "MRU", "LRU", "MFS", "MR"])


@given(entry_lists, all_policies, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100)
def test_order_is_permutation(entries, policy_name, seed):
    policy = get_ordering_policy(policy_name)
    cache = cache_of(entries)
    ordered = cache.select_top(policy, len(entries), random.Random(seed))
    assert sorted(e.address for e in ordered) == sorted(
        e.address for e in entries
    )


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_order_sorted_by_key(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    ordered = cache_of(entries).ranking(policy).entries
    ranks = [policy.rank(e) for e in ordered]
    assert ranks == sorted(ranks)


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_best_and_victim_are_extremes(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    best = cache_of(entries).select_best(policy, random.Random(0))
    victim = victim_end(policy, entries)
    if not entries:
        assert best is None and victim is None
        return
    ranks = [policy.rank(e) for e in entries]
    assert policy.rank(best) == min(ranks)
    assert policy.rank(victim) == max(ranks)


@given(
    entry_lists,
    st.integers(min_value=0, max_value=10),
    all_policies,
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100)
def test_select_top_size_and_membership(entries, k, policy_name, seed):
    policy = get_ordering_policy(policy_name)
    top = cache_of(entries).select_top(policy, k, random.Random(seed))
    assert len(top) == min(k, len(entries))
    addresses = [e.address for e in top]
    assert len(set(addresses)) == len(addresses)
    pool = {e.address for e in entries}
    assert set(addresses) <= pool


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_select_top_prefix_of_order(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    cache = cache_of(entries)
    ordered = cache.ranking(policy).entries
    top3 = cache.select_top(policy, 3, random.Random(0))
    assert [e.address for e in top3] == [e.address for e in ordered[:3]]


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=10)
def test_random_select_top_is_random_sample_draw_for_draw(seed):
    """``LinkCache.select_top`` spells ``random.sample`` out for Random; the
    stdlib is the oracle.  Every n in [0, 300] and k in [0, 12] — ``sample``'s
    pool branch (n <= 21, or <= 85 once k > 5), its rejection branch and
    the shuffle at k >= n — must return the same objects in the same
    order and leave the stream in the same state, or a pong differs and
    every pin moves.  A CPython that changes ``sample`` fails here."""
    policy = get_ordering_policy("Random")
    ours, stdlib = random.Random(seed), random.Random(seed)
    population = [CacheEntry(address=a) for a in range(300)]
    for n in range(301):
        entries = population[:n]
        cache = cache_of(entries)
        for k in range(13):
            top = cache.select_top(policy, k, ours)
            if k == 0:
                expected = []
            elif k >= n:
                expected = list(entries)
                stdlib.shuffle(expected)
            else:
                expected = stdlib.sample(entries, k)
            assert [id(e) for e in top] == [id(e) for e in expected], (n, k)
        # A draw too many or too few never heals, so once per row will do.
        assert ours.getstate() == stdlib.getstate(), n


@given(entry_lists, st.sampled_from(sorted(REPLACEMENTS)))
@settings(max_examples=100)
def test_replacement_victim_is_member(entries, replacement_name):
    policy = get_replacement_policy(replacement_name)
    if policy.randomized:
        victim = (
            contest(policy, entries[:-1], entries[-1], random.Random(0))
            if entries
            else None
        )
    else:
        victim = victim_end(policy, entries)
    if entries:
        assert victim in entries
    else:
        assert victim is None


# ----------------------------------------------------------------------
# The tuple-key oracle: what "ranking" meant before a policy was a field
# and a direction, written out once, here, so the C-level spelling in
# ``core/policies.py`` has something to be equal to.
# ----------------------------------------------------------------------

_ORACLE_KEYS = {
    "MRU": lambda e: e.ts,
    "LRU": lambda e: -e.ts,
    "MFS": lambda e: float(e.num_files),
    "MR": lambda e: float(e.num_res),
}

# Ties are the common case in a run (NumRes is mostly 0, free riders all
# share 0 files, a pong stamps one TS on five entries), so the pools are
# small; the one 60 000 is a poisoned entry's claim.
tied_entry_lists = st.lists(
    st.builds(
        CacheEntry,
        address=st.integers(min_value=0, max_value=500),
        ts=st.sampled_from([0.0, 12.5, 300.0]),
        num_files=st.sampled_from([0, 0, 0, 3, 3, 17, 60_000]),
        num_res=st.integers(min_value=0, max_value=1),
    ),
    max_size=120,
    unique_by=lambda e: e.address,
)


def _oracle_rank(policy_name):
    key = _ORACLE_KEYS[policy_name]
    return lambda e: (key(e), -e.address)


def _same_objects(actual, expected):
    assert [id(e) for e in actual] == [id(e) for e in expected]


@given(tied_entry_lists, deterministic_policies)
@settings(max_examples=150, deadline=None)
def test_selection_matches_the_tuple_key_oracle(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    key, rank = _ORACLE_KEYS[policy_name], _oracle_rank(policy_name)
    rng = random.Random(3)
    state = rng.getstate()
    ordered = sorted(entries, key=rank, reverse=True)
    cache = cache_of(entries)
    _same_objects(cache.ranking(policy).entries, ordered)
    # Built from the residents in any insertion order: the same ranking.
    _same_objects(cache_of(entries[::-1]).ranking(policy).entries, ordered)
    for k in range(len(entries) + 2):
        _same_objects(cache.select_top(policy, k, rng), ordered[:k])
    best = cache.select_best(policy, rng)
    victim = victim_end(policy, entries)
    if entries:
        assert best is max(entries, key=rank)
        assert victim is min(entries, key=rank)
        assert [policy.rank(e) for e in entries] == [-key(e) for e in entries]
    else:
        assert best is None and victim is None
    assert rng.getstate() == state


@given(
    tied_entry_lists.filter(bool),
    deterministic_policies,
    st.sampled_from(["tied", "worst", "best"]),
    st.sampled_from(["above", "below", "between"]),
)
@settings(max_examples=150, deadline=None)
def test_contest_matches_the_tuple_key_oracle(entries, policy_name, standing, where):
    """A full ``LinkCache``'s contest against ``min`` over residents +
    candidate on the tuple key: the candidate tied with the residents'
    worst, strictly worse than all of them and strictly better, its
    address above, below and among theirs.
    """
    policy = get_ordering_policy(policy_name)
    rank = _oracle_rank(policy_name)
    address = {
        "above": 1_000,
        "below": -1,
        "between": next(a for a in range(502) if all(e.address != a for e in entries)),
    }[where]
    if standing == "tied":
        twin = min(entries, key=rank)
        fields = dict(ts=twin.ts, num_files=twin.num_files, num_res=twin.num_res)
    else:
        # LRU prefers the low end, so its worst is the high one.
        low = (standing == "worst") != (policy_name == "LRU")
        value = -1 if low else 10**9
        fields = dict(ts=float(value), num_files=value, num_res=value)
    candidate = CacheEntry(address=address, **fields)
    rng = random.Random(3)
    state = rng.getstate()
    victim = contest(policy, entries, candidate, rng)
    assert victim is min(entries + [candidate], key=rank)
    if standing != "tied":
        assert (victim is candidate) == (standing == "worst")
    assert rng.getstate() == state


@given(tied_entry_lists, deterministic_policies)
@settings(max_examples=150, deadline=None)
def test_query_cache_pops_the_link_cache_ranking(entries, policy_name):
    # The two readers of ``Policy.rank``: a query cache's heap and a link
    # cache's kept ranking pop and list the same order, ties included.
    policy = get_ordering_policy(policy_name)
    pool = make_query_cache(policy_name, entries, owner=-1)
    popped = [pool.pop() for _ in entries]
    assert pool.pop() is None
    _same_objects(popped, cache_of(entries).ranking(policy).entries)
