"""A pong is taken in one pass: the caches' one-call intakes equal the
per-entry loop they replaced.

The reference is that loop, written out here over list-backed models.  A
ping's pong: each entry cloned (``born`` stamped, NumRes zeroed under
MR*) and offered to the link cache one at a time.  A query reply's pong:
each entry the query cache has not seen cloned, pooled and offered to the
link cache.  The link-cache model draws a Random victim with ``randrange``
over ``residents + [candidate]`` and a key-based one on the tuple-key
oracle, so no reference step runs the code under test.  Compared after
every step: the admitted count, the link cache's order and fields, every
ranking it keeps, the query cache's pops and the stream's state.  Random
pongs and evictions between the pongs hold the cache's kept insertion
order, which Random's draws index, to the stdlib's ``sample`` over the
model's residents.
"""

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
from repro.core.query_cache import QueryCache
from tests.conftest import cached
from tests.property.test_cache_properties import _ListCache, _sample
from tests.property.test_policy_properties import (
    _ORACLE_KEYS,
    _oracle_rank,
    _same_objects,
)

#: The oracle's name for each order a ranking keeps.
_ORDER_NAMES = {
    ("ts", False): "MRU",
    ("ts", True): "LRU",
    ("num_files", False): "MFS",
    ("num_res", False): "MR",
}


def _imported(entry: CacheEntry, reset: bool, now: float) -> CacheEntry:
    """The keeper's clone, spelled out field by field."""
    return CacheEntry(
        address=entry.address,
        ts=entry.ts,
        num_files=entry.num_files,
        num_res=0 if reset else entry.num_res,
        born=now,
    )


def _fields(entries):
    return [(e.address, e.ts, e.num_files, e.num_res, e.born) for e in entries]


class _ListQueryCache:
    """The query cache as the per-entry loop used it: a seen set, then a
    pool popped by ``randrange`` swap-remove or on the tuple-key oracle."""

    def __init__(self, owner, policy_name, seeded):
        self.seen = {owner, *(e.address for e in seeded)}
        self.pool = list(seeded)
        self.policy_name = policy_name

    def add(self, entry, reset, now):
        """``was_seen``, then a clone pooled; the clone, or None."""
        if entry.address in self.seen:
            return None
        self.seen.add(entry.address)
        clone = _imported(entry, reset, now)
        self.pool.append(clone)
        return clone

    def pop(self, rng):
        pool = self.pool
        if not pool:
            return None
        if self.policy_name == "Random":
            index = rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            return pool.pop()
        best = max(pool, key=_oracle_rank(self.policy_name))
        del pool[next(i for i, e in enumerate(pool) if e is best)]
        return best


#: Few distinct values, so ties decide contests; address 0 is the owner's
#: and 1..10 the prefilled residents', so pongs name both.
_shown = st.builds(
    CacheEntry,
    address=st.integers(min_value=0, max_value=15),
    ts=st.sampled_from([0.0, 12.5, 300.0]),
    num_files=st.sampled_from([0, 0, 3, 17, 60_000]),
    num_res=st.integers(min_value=0, max_value=2),
    born=st.sampled_from([0.0, 5.0]),
)
_pongs = st.lists(_shown, max_size=7)
_times = st.sampled_from([20.0, 40.0])
_steps = st.one_of(
    st.tuples(st.just("ping"), _pongs, _times),
    st.tuples(st.just("query"), _pongs, _times),
    st.tuples(st.just("pop")),
    # Random draws the cache answers from its kept insertion order, and a
    # removal by address that drops it.
    st.tuples(st.just("random pong"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=15)),
)


@given(
    st.lists(_steps, min_size=1, max_size=25),
    st.sampled_from(sorted(REPLACEMENTS)),
    st.sampled_from(["Random", "MRU", "LRU", "MFS", "MR"]),
    st.booleans(),
    st.sampled_from([0, 1, 3, 10]),
    st.booleans(),
    st.sets(st.sampled_from(sorted(_ORDER_NAMES))),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_intake_is_the_per_entry_loop(
    steps, replacement_name, probe_name, reset, capacity, prefill, watched, seed
):
    replacement = get_replacement_policy(replacement_name)
    probe = get_ordering_policy(probe_name)
    cache, model = LinkCache(capacity, owner=0), _ListCache(capacity, owner=0)
    for field, low in watched:  # kept from the start, or from first use
        cache.ranking(get_ordering_policy(_ORDER_NAMES[field, low]))
    rng, rng_model = random.Random(seed), random.Random(seed)
    if prefill:
        for address in range(1, capacity + 1):
            resident = CacheEntry(address, ts=12.5, num_files=address % 3)
            assert cache.insert(resident.copy(), replacement, rng)
            assert model.insert(resident.copy(), replacement, rng_model)
    pool = QueryCache(0, probe, rng, cache.entries())
    pool_model = _ListQueryCache(0, probe_name, model.residents)

    for step, *args in steps:
        if step == "pop":
            popped, expected = pool.pop(), pool_model.pop(rng_model)
            assert _fields([popped] if popped else []) == _fields(
                [expected] if expected else []
            )
        elif step == "random pong":
            (k,) = args
            got = cache.select_top(get_ordering_policy("Random"), k, rng)
            assert _fields(got) == _fields(_sample(model.residents, k, rng_model))
        elif step == "evict":
            (address,) = args
            assert cache.evict(address) == model.evict(address)
        elif step == "ping":
            shown, now = args
            got = cache.admit(
                shown, replacement, now, rng, shown=True, reset_num_results=reset
            )
            want = sum(
                model.insert(_imported(e, reset, now), replacement, rng_model)
                for e in shown
            )
            assert got == want
        else:
            shown, now = args
            kept = pool.add(shown, reset, now)
            before = set(cache.addresses())
            got = cache.admit(kept, replacement, now, rng) if kept else 0
            kept_model, want = [], 0
            for entry in shown:
                clone = pool_model.add(entry, reset, now)
                if clone is not None:
                    kept_model.append(clone)
                    want += model.insert(clone, replacement, rng_model)
            assert _fields(kept) == _fields(kept_model)
            assert got == want
            # The link cache keeps the query cache's clone, not a second one.
            for clone in kept:
                held = cached(cache, clone.address)
                assert clone.address in before or held is None or held is clone
        assert _fields(cache.entries()) == _fields(model.residents)
        # A Random ping target after every step: one index into the order.
        target = cache.select_best(get_ordering_policy("Random"), rng)
        residents = model.residents
        expected = residents[rng_model.randrange(len(residents))] if residents else None
        assert _fields([target] if target else []) == _fields(
            [expected] if expected else []
        )
        assert rng.getstate() == rng_model.getstate()
        for (field, low), ranking in (cache._rankings or {}).items():
            name = _ORDER_NAMES[field, low]
            ordered = sorted(cache.entries(), key=_oracle_rank(name), reverse=True)
            _same_objects(ranking.entries, ordered)
            assert ranking.ranks == [-_ORACLE_KEYS[name](e) for e in ordered]
    assert [e.address for e in iter(pool.pop, None)] == [
        e.address for e in iter(lambda: pool_model.pop(rng_model), None)
    ]
    assert rng.getstate() == rng_model.getstate()
