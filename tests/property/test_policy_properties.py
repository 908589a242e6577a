"""Property-based tests for the policy framework."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import CacheEntry
from repro.core.policies import (
    REPLACEMENT_KEY_POLICY,
    get_ordering_policy,
    get_replacement_policy,
)

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
    ordered = policy.order(entries, 1e5, random.Random(seed))
    assert sorted(e.address for e in ordered) == sorted(
        e.address for e in entries
    )


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_order_sorted_by_key(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    ordered = policy.order(entries, 1e5, random.Random(0))
    keys = [policy.key(e, 1e5) for e in ordered]
    assert keys == sorted(keys, reverse=True)


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_best_and_victim_are_extremes(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    rng = random.Random(0)
    best = policy.select_best(entries, 1e5, rng)
    victim = policy.choose_victim(entries, 1e5, rng)
    if not entries:
        assert best is None and victim is None
        return
    keys = [policy.key(e, 1e5) for e in entries]
    assert policy.key(best, 1e5) == max(keys)
    assert policy.key(victim, 1e5) == min(keys)


@given(
    entry_lists,
    st.integers(min_value=0, max_value=10),
    all_policies,
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100)
def test_select_top_size_and_membership(entries, k, policy_name, seed):
    policy = get_ordering_policy(policy_name)
    top = policy.select_top(entries, k, 1e5, random.Random(seed))
    assert len(top) == min(k, len(entries))
    addresses = [e.address for e in top]
    assert len(set(addresses)) == len(addresses)
    pool = {e.address for e in entries}
    assert set(addresses) <= pool


@given(entry_lists, deterministic_policies)
@settings(max_examples=100)
def test_select_top_prefix_of_order(entries, policy_name):
    policy = get_ordering_policy(policy_name)
    rng = random.Random(0)
    ordered = policy.order(entries, 1e5, rng)
    top3 = policy.select_top(entries, 3, 1e5, rng)
    assert [e.address for e in top3] == [e.address for e in ordered[:3]]


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=10)
def test_random_select_top_is_random_sample_draw_for_draw(seed):
    """``RandomPolicy.select_top`` spells ``random.sample`` out; the stdlib
    is the oracle.  Every n in [0, 300] and k in [0, 12] — ``sample``'s
    pool branch (n <= 21, or <= 85 once k > 5), its rejection branch and
    the shuffle at k >= n — must return the same objects in the same
    order and leave the stream in the same state, or a pong differs and
    every pin moves.  A CPython that changes ``sample`` fails here."""
    policy = get_ordering_policy("Random")
    ours, stdlib = random.Random(seed), random.Random(seed)
    population = [CacheEntry(address=a) for a in range(300)]
    for n in range(301):
        entries = population[:n]
        for k in range(13):
            top = policy.select_top(entries, k, 1e5, ours)
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


@given(entry_lists, st.sampled_from(sorted(REPLACEMENT_KEY_POLICY)))
@settings(max_examples=100)
def test_replacement_victim_is_member(entries, replacement_name):
    policy = get_replacement_policy(replacement_name)
    victim = policy.choose_victim(entries, 1e5, random.Random(0))
    if entries:
        assert victim in entries
    else:
        assert victim is None
