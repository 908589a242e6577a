"""Property-based tests for the link cache and query cache."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.policies import (
    REPLACEMENTS,
    get_ordering_policy,
    get_replacement_policy,
)
from tests.conftest import cached, make_query_cache
from tests.property.test_policy_properties import (
    _ORACLE_KEYS,
    _oracle_rank,
    _same_objects,
)

entry_strategy = st.builds(
    CacheEntry,
    address=st.integers(min_value=0, max_value=50),
    ts=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    num_files=st.integers(min_value=0, max_value=10_000),
    num_res=st.integers(min_value=0, max_value=100),
)

replacement_names = st.sampled_from(["Random", "LRU", "MRU", "LFS", "LR"])

policy_names = st.sampled_from(["Random", "MFS", "MRU", "LRU", "MR"])


@given(
    st.lists(entry_strategy, max_size=80),
    st.integers(min_value=1, max_value=10),
    replacement_names,
)
@settings(max_examples=80)
def test_link_cache_invariants(entries, capacity, replacement_name):
    """Size <= capacity; addresses unique; owner never cached."""
    owner = 0
    cache = LinkCache(capacity=capacity, owner=owner)
    policy = get_replacement_policy(replacement_name)
    rng = random.Random(1)
    for entry in entries:
        cache.insert(entry, policy, rng)
        assert len(cache) <= capacity
        addresses = list(cache.addresses())
        assert len(addresses) == len(set(addresses))
        assert owner not in cache


@given(st.lists(entry_strategy, max_size=80), replacement_names)
@settings(max_examples=80)
def test_link_cache_first_writer_wins(entries, replacement_name):
    """Once cached, an address's fields never change via insert."""
    cache = LinkCache(capacity=100, owner=0)
    policy = get_replacement_policy(replacement_name)
    rng = random.Random(2)
    first_seen = {}
    for entry in entries:
        cache.insert(entry, policy, rng)
        if entry.address in cache and entry.address not in first_seen:
            first_seen[entry.address] = (
                cached(cache, entry.address).ts,
                cached(cache, entry.address).num_files,
            )
    for address, (ts, num_files) in first_seen.items():
        held = cached(cache, address)
        if held is not None:
            assert (held.ts, held.num_files) == (ts, num_files)


class _ListCache:
    """Reference the link cache must equal: residents in a plain list, the
    victim ``randrange``'s pick from ``residents + [candidate]`` for
    Random, or for a key-based policy ``min`` over them on the tuple-key
    oracle."""

    def __init__(self, capacity, owner):
        self.capacity = capacity
        self.owner = owner
        self.residents = []

    def get(self, address):
        return next((e for e in self.residents if e.address == address), None)

    def insert(self, entry, policy, rng):
        if entry.address == self.owner or self.get(entry.address) is not None:
            return False
        if self.capacity == 0:
            return False
        if len(self.residents) >= self.capacity:
            contestants = self.residents + [entry]
            if policy.randomized:
                victim = contestants[rng.randrange(len(contestants))]
            else:
                victim = min(contestants, key=_oracle_rank(policy.name))
            if victim is entry:
                return False
            self.residents = [e for e in self.residents if e is not victim]
        self.residents.append(entry)
        return True

    def evict(self, address):
        entry = self.get(address)
        if entry is None:
            return False
        self.residents = [e for e in self.residents if e is not entry]
        return True

    def touch(self, address, now):
        entry = self.get(address)
        if entry is not None:
            entry.touch(now)

    def record_results(self, address, num_results, now):
        entry = self.get(address)
        if entry is None:
            return False
        entry.num_res = num_results
        if now > entry.ts:
            entry.ts = now
        return True


#: Addresses 100.. are the prefilled residents, so ops hit both
#: residents and strangers at every capacity.
_model_addresses = st.integers(min_value=0, max_value=12) | st.integers(
    min_value=100, max_value=205
)
_model_times = st.floats(min_value=0, max_value=1e4, allow_nan=False)
_model_ops = st.one_of(
    st.tuples(
        st.just("insert"),
        st.builds(
            CacheEntry,
            address=_model_addresses,
            ts=_model_times,
            num_files=st.integers(min_value=0, max_value=20),
            num_res=st.integers(min_value=0, max_value=5),
        ),
    ),
    st.tuples(st.just("evict"), _model_addresses),
    st.tuples(st.just("touch"), _model_addresses, _model_times),
    st.tuples(
        st.just("record_results"),
        _model_addresses,
        st.integers(min_value=0, max_value=5),
        _model_times,
    ),
)


@given(
    st.lists(_model_ops, max_size=60),
    st.sampled_from([0, 1, 3, 100]),
    st.sampled_from(["Random", "LFS"]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_link_cache_equals_list_model(ops, capacity, replacement_name, prefill, seed):
    """Same returns, same ``entries()`` order, same RNG draws as the
    list-backed reference after every step — the property the golden
    trace digests rely on."""
    policy = get_replacement_policy(replacement_name)
    cache, model = LinkCache(capacity, owner=0), _ListCache(capacity, owner=0)
    rng_cache, rng_model = random.Random(seed), random.Random(seed)
    if prefill:
        fill = [("insert", CacheEntry(100 + i, num_files=i % 7)) for i in range(capacity)]
        ops = fill + ops
    for op, *args in ops:
        if op == "insert":
            (entry,) = args
            got = cache.insert(entry.copy(), policy, rng_cache)
            want = model.insert(entry.copy(), policy, rng_model)
        else:
            got = getattr(cache, op)(*args)
            want = getattr(model, op)(*args)
        assert got == want
        assert cache.entries() == model.residents
        assert list(cache.iter_entries()) == model.residents
        assert list(cache.addresses()) == [e.address for e in model.residents]
        assert len(cache) == len(model.residents) <= capacity
        assert rng_cache.getstate() == rng_model.getstate()


@given(
    st.lists(entry_strategy, max_size=60),
    st.sets(st.integers(min_value=1, max_value=50), max_size=10),
    policy_names,
)
@settings(max_examples=80)
def test_query_cache_never_admits_seen_or_excluded(entries, excluded, policy_name):
    link_entries = [CacheEntry(address=a) for a in sorted(excluded)]
    cache = make_query_cache(policy_name, link_entries)
    admitted = set()
    for entry in entries:
        seen = entry.address in admitted | excluded | {0}
        kept = cache.add([entry], False, 0.0)
        assert [e.address for e in kept] == ([] if seen else [entry.address])
        admitted.update(e.address for e in kept)
    # Nothing excluded or owned was admitted; no duplicates possible.
    assert 0 not in admitted
    assert admitted.isdisjoint(excluded)
    assert len(admitted) + len(link_entries) == len(cache)
    # Every candidate is popped exactly once: the link entries and the
    # admitted, nothing else.
    popped = [entry.address for entry in iter(cache.pop, None)]
    assert sorted(popped) == sorted(admitted | excluded)


@given(st.lists(entry_strategy, max_size=60), policy_names)
@settings(max_examples=80)
def test_query_cache_pop_is_terminal(entries, policy_name):
    """A popped address can never re-enter the scratch space."""
    cache = make_query_cache(policy_name)
    cache.add(entries, False, 0.0)
    popped = [cache.pop().address for _ in range(min(5, len(cache)))]
    for entry in entries:
        if entry.address in popped:
            assert cache.add([entry], False, 0.0) == []


# ----------------------------------------------------------------------
# The link cache keeps each key-based order: after every operation, every
# ranking it holds is a fresh sort on the tuple-key oracle.
# ----------------------------------------------------------------------

_KEYED = ["MRU", "LRU", "MFS", "MR"]

#: Few distinct values, so ties are the rule: a pong stamps one TS on
#: five entries, NumRes is mostly 0, free riders share 0 files.  Address
#: 0 is the owner's; 1..12 are prefilled, so most operations meet a
#: resident.
_tied_addresses = st.integers(min_value=0, max_value=15)
_TIES = [0.0, 12.5, 300.0]
_tied_times = st.sampled_from(_TIES)
_ranked_ops = st.one_of(
    st.tuples(
        st.just("insert"),
        st.builds(
            CacheEntry,
            address=_tied_addresses,
            ts=_tied_times,
            num_files=st.sampled_from([0, 0, 3, 17, 60_000]),
            num_res=st.integers(min_value=0, max_value=1),
        ),
    ),
    st.tuples(st.just("evict"), _tied_addresses),
    st.tuples(st.just("touch"), _tied_addresses, _tied_times),
    st.tuples(
        st.just("record_results"),
        _tied_addresses,
        st.integers(min_value=0, max_value=1),
        _tied_times,
    ),
    st.tuples(st.just("pong"), st.sampled_from(_KEYED + ["Random"]),
              st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("ping"), st.sampled_from(_KEYED + ["Random"])),
)


def _sample(residents, k, rng):
    """A Random pong on the stdlib: ``sample``, or a shuffle of them all."""
    if k <= 0 or not residents:
        return []
    if k >= len(residents):
        shuffled = list(residents)
        rng.shuffle(shuffled)
        return shuffled
    return rng.sample(residents, k)


def _fields(entries):
    return [(e.address, e.ts, e.num_files, e.num_res) for e in entries]


@given(
    st.lists(_ranked_ops, min_size=5, max_size=80),
    st.sampled_from([0, 1, 3, 10, 30]),
    st.sampled_from(sorted(REPLACEMENTS)),
    st.sets(st.sampled_from(_KEYED)),
    st.booleans(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=300, deadline=None)
def test_every_ranking_is_a_fresh_oracle_sort(ops, capacity, replacement_name,
                                             watched, prefill, seed):
    """Insert / evict / touch / record_results under every replacement
    policy, with pongs and ping targets under every ordering in between:
    after each step every ranking the cache holds — the ``watched`` ones
    from the start, the others from the pong or ping that first asked —
    is the oracle's sort of the residents (same objects, and the ranks the
    oracle's keys, negated), the pong is the oracle's top k, the ping
    target its best, and the stream is where the list model's is."""
    replacement = get_replacement_policy(replacement_name)
    cache = LinkCache(capacity, owner=0)
    model = _ListCache(capacity, owner=0)
    rng_cache, rng_model = random.Random(seed), random.Random(seed)
    asked = {name: get_ordering_policy(name) for name in watched}
    for policy in asked.values():
        assert cache.ranking(policy).entries == []
    if prefill:
        ops = [
            ("insert", CacheEntry(a, _TIES[a % 3], a % 2, a % 3 // 2))
            for a in range(1, 13)
        ] + ops
    for op, *args in ops:
        if op == "insert":
            (entry,) = args
            got = cache.insert(entry.copy(), replacement, rng_cache)
            want = model.insert(entry.copy(), replacement, rng_model)
        elif op in ("pong", "ping"):
            name, *k = args
            policy = get_ordering_policy(name)
            residents = cache.entries()
            if op == "pong":
                got = cache.select_top(policy, k[0], rng_cache)
            else:
                got = cache.select_best(policy, rng_cache)
            if policy.randomized:
                want = (
                    _sample(residents, k[0], rng_model)
                    if op == "pong"
                    else residents[rng_model.randrange(len(residents))]
                    if residents
                    else None
                )
            else:
                asked[name] = policy
                ordered = sorted(residents, key=_oracle_rank(name), reverse=True)
                want = ordered[: k[0]] if op == "pong" else next(iter(ordered), None)
            if op == "pong":
                _same_objects(got, want)
            else:
                assert got is want
            continue
        else:
            got = getattr(cache, op)(*args)
            want = getattr(model, op)(*args)
            if op == "record_results":
                want = model.get(args[0]) is not None
        assert got == want
        assert _fields(cache.entries()) == _fields(model.residents)
        assert rng_cache.getstate() == rng_model.getstate()
        for name, policy in asked.items():
            ranking = cache.ranking(policy)
            ordered = sorted(cache.entries(), key=_oracle_rank(name), reverse=True)
            _same_objects(ranking.entries, ordered)
            assert ranking.ranks == [-_ORACLE_KEYS[name](e) for e in ordered]
    assert rng_cache.getstate() == rng_model.getstate()
