"""Tests for the query-execution loop."""

from __future__ import annotations

import random

import pytest

from repro.core.entry import CacheEntry
from repro.core.params import ProtocolParams
from repro.core.search import QueryResult, execute_query
from repro.network.transport import Transport
from tests.conftest import cached, make_entry, make_query_cache
from tests.core.helpers import make_peer


@pytest.fixture
def rng():
    return random.Random(13)


def wire(querier, others, protocol_timeout=0.2):
    """Register peers on a fresh transport."""
    transport = Transport(timeout=protocol_timeout)
    transport.register(querier.address, querier)
    for peer in others:
        transport.register(peer.address, peer)
    return transport


def cache_entries_for(querier, peers):
    """Put entries for ``peers`` into the querier's link cache."""
    for peer in peers:
        querier.link_cache.insert(
            make_entry(peer.address, num_files=peer.num_files),
            querier.policies.replacement,
            querier._policy_rng,
        )


class TestCandidatePool:
    """A query's candidate pool is its :class:`QueryCache`."""

    def test_key_policy_pops_best_first(self, rng):
        pool = make_query_cache("MFS", [make_entry(1, num_files=5)], rng=rng)
        pool.add([make_entry(2, num_files=50), make_entry(3, num_files=20)], False, 0.0)
        assert [pool.pop().address for _ in range(3)] == [2, 3, 1]
        assert pool.pop() is None

    def test_random_policy_pops_everything(self, rng):
        seeds = [make_entry(a) for a in range(1, 6)]
        pool = make_query_cache("Random", seeds, rng=rng)
        pool.add([make_entry(a) for a in range(6, 11)], False, 0.0)
        popped = {pool.pop().address for _ in range(10)}
        assert popped == set(range(1, 11))
        assert pool.pop() is None

    def test_len(self, rng):
        pool = make_query_cache("MR", [make_entry(1)], rng=rng)
        pool.add([make_entry(2)], False, 0.0)
        assert len(pool) == 2
        pool.pop()
        assert len(pool) == 1

    def test_dynamic_insert_during_pops(self, rng):
        pool = make_query_cache("MFS", [make_entry(1, num_files=10)], rng=rng)
        assert pool.pop().address == 1
        pool.add([make_entry(2, num_files=99)], False, 0.0)
        assert pool.pop().address == 2


class TestQueryBasics:
    def test_satisfied_on_first_owner(self, rng):
        querier = make_peer(0, library=frozenset())
        owner = make_peer(1, library=frozenset({42}))
        transport = wire(querier, [owner])
        cache_entries_for(querier, [owner])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.satisfied
        assert result.results == 1
        assert result.probes == 1
        assert result.good_probes == 1
        assert result.response_time is not None

    def test_unsatisfied_when_nobody_owns(self, rng):
        querier = make_peer(0, library=frozenset())
        others = [make_peer(i, library=frozenset({7})) for i in (1, 2, 3)]
        transport = wire(querier, others)
        cache_entries_for(querier, others)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert not result.satisfied
        assert result.probes == 3
        assert result.pool_exhausted
        assert result.response_time is None

    def test_empty_cache_means_zero_probes(self, rng):
        querier = make_peer(0)
        transport = wire(querier, [])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.probes == 0
        assert not result.satisfied

    def test_dead_target_counted_and_evicted(self, rng):
        querier = make_peer(0)
        dead = make_peer(1, death_time=5.0)
        transport = wire(querier, [dead])
        cache_entries_for(querier, [dead])
        result = execute_query(querier, 42, transport, 10.0, rng=rng)
        assert result.dead_probes == 1
        assert 1 not in querier.link_cache

    def test_desired_results_greater_than_one(self, rng):
        querier = make_peer(0, library=frozenset())
        owners = [make_peer(i, library=frozenset({42})) for i in (1, 2, 3)]
        transport = wire(querier, owners)
        cache_entries_for(querier, owners)
        result = execute_query(
            querier, 42, transport, 0.0, rng=rng, desired_results=2
        )
        assert result.satisfied
        assert result.results == 2
        assert result.probes == 2

    def test_max_probes_cap(self, rng):
        querier = make_peer(0, library=frozenset())
        others = [make_peer(i, library=frozenset()) for i in range(1, 9)]
        transport = wire(querier, others)
        cache_entries_for(querier, others)
        result = execute_query(
            querier, 42, transport, 0.0, rng=rng, max_probes=3
        )
        assert result.probes == 3
        assert not result.satisfied
        assert not result.pool_exhausted

    def test_capped_random_query_draws_only_for_the_probes_it_sent(self):
        """Reporting ``pool_exhausted`` must not pop (and so draw) again."""
        querier = make_peer(0, library=frozenset())
        assert querier.policies.query_probe.randomized
        others = [make_peer(i, library=frozenset()) for i in range(1, 9)]
        transport = wire(querier, others)
        cache_entries_for(querier, others)
        stream = random.Random(13)
        result = execute_query(
            querier, 42, transport, 0.0, rng=stream, max_probes=3
        )
        assert result.probes == 3
        # The eight seeds pop from a bag of 8, 7, then 6 (the empty pongs
        # admit nothing): three index draws and not one more.
        reference = random.Random(13)
        for remaining in (8, 7, 6):
            reference.randrange(remaining)
        assert stream.getstate() == reference.getstate()


class TestPongChaining:
    def test_query_cache_extends_reach(self, rng):
        """The querier only caches peer 1, but 1's pong points at owner 2."""
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        relay = make_peer(1, protocol=protocol, library=frozenset())
        owner = make_peer(2, protocol=protocol, library=frozenset({42}))
        relay.link_cache.insert(
            make_entry(2, num_files=5),
            relay.policies.replacement, relay._policy_rng,
        )
        transport = wire(querier, [relay, owner])
        cache_entries_for(querier, [relay])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.satisfied
        assert result.probes == 2

    def test_no_duplicate_probes(self, rng):
        """Pongs pointing back at probed/cached peers must not re-probe."""
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        a = make_peer(1, protocol=protocol, library=frozenset())
        b = make_peer(2, protocol=protocol, library=frozenset())
        # a and b point at each other: the pong chain cycles.
        a.link_cache.insert(make_entry(2), a.policies.replacement, a._policy_rng)
        b.link_cache.insert(make_entry(1), b.policies.replacement, b._policy_rng)
        transport = wire(querier, [a, b])
        cache_entries_for(querier, [a, b])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.probes == 2  # each probed exactly once

    def test_productive_query_cache_entry_graduates(self, rng):
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        relay = make_peer(1, protocol=protocol, library=frozenset())
        owner = make_peer(2, protocol=protocol, library=frozenset({42}))
        relay.link_cache.insert(
            make_entry(2), relay.policies.replacement, relay._policy_rng
        )
        transport = wire(querier, [relay, owner])
        cache_entries_for(querier, [relay])
        execute_query(querier, 42, transport, 0.0, rng=rng)
        # The owner answered; it should now be in the querier's link cache
        # with its NumRes recorded.
        entry = cached(querier.link_cache, 2)
        assert entry is not None
        assert entry.num_res == 1


class TestPongIngestCopies:
    """Pong entries are copied only once admission is certain."""

    @pytest.fixture
    def copied(self, monkeypatch):
        """Addresses ``CacheEntry.copy`` (the keeper's clone) was called on."""
        calls = []
        original = CacheEntry.copy

        def counting(self, *args, **kwargs):
            calls.append(self.address)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CacheEntry, "copy", counting)
        return calls

    def test_already_seen_pongs_copy_nothing(self, rng, copied):
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        a = make_peer(1, protocol=protocol, library=frozenset())
        b = make_peer(2, protocol=protocol, library=frozenset())
        # Every pong entry points at the querier or a peer it already caches.
        for peer, addresses in ((a, (0, 2)), (b, (0, 1))):
            for address in addresses:
                peer.link_cache.insert(
                    make_entry(address), peer.policies.replacement, peer._policy_rng
                )
        transport = wire(querier, [a, b])
        cache_entries_for(querier, [a, b])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert copied == []
        assert (result.probes, result.good_probes) == (2, 2)
        assert result.pool_exhausted
        assert sorted(querier.link_cache.addresses()) == [1, 2]

    def test_mixed_pongs_copy_exactly_the_admitted(self, rng, copied):
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        peers = [
            make_peer(
                address,
                protocol=protocol,
                library=frozenset({42}) if address in (4, 5) else frozenset(),
                seed=address,
            )
            for address in range(6)
        ]
        # 0 caches {1, 2}; their pongs mix seen (0, 2, a repeated 3) with new.
        for owner, addresses in ((0, (1, 2)), (1, (0, 2, 3, 4)), (2, (3, 5))):
            peer = peers[owner]
            for address in addresses:
                peer.link_cache.insert(
                    make_entry(address, num_files=address),
                    peer.policies.replacement, peer._policy_rng,
                )
        querier = peers[0]
        transport = wire(querier, peers[1:])
        result = execute_query(
            querier, 42, transport, 0.0, rng=rng, desired_results=5
        )
        assert sorted(copied) == [3, 4, 5]
        # Outcome and cache recorded at the parent commit (which made six
        # copies to admit the same three).
        assert result == QueryResult(
            satisfied=False, results=2, probes=5, good_probes=5, dead_probes=0,
            refused_probes=0, duration=1.0, response_time=None,
            pool_exhausted=True,
        )
        assert querier.link_cache.entries() == [
            CacheEntry(address=1, ts=0.4, num_files=1, num_res=0, born=0.0),
            CacheEntry(address=2, ts=0.0, num_files=2, num_res=0, born=0.0),
            CacheEntry(address=5, ts=0.2, num_files=5, num_res=1, born=0.0),
            CacheEntry(address=3, ts=0.2 * 3, num_files=3, num_res=0, born=0.0),
            CacheEntry(address=4, ts=0.8, num_files=4, num_res=1, born=0.4),
        ]


    def test_admitted_entry_is_the_queriers_own(self, rng):
        """The keeper's rule at the query cache: what a query admits from
        a pong is a clone, so the responder's resident and the querier's
        entry never alias."""
        protocol = ProtocolParams(cache_size=10, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        relay = make_peer(1, protocol=protocol, library=frozenset())
        owner = make_peer(2, protocol=protocol, library=frozenset({42}))
        resident = make_entry(2, ts=0.0, num_files=9)
        assert relay.link_cache.insert(
            resident, relay.policies.replacement, relay._policy_rng
        )
        transport = wire(querier, [relay, owner])
        cache_entries_for(querier, [relay])
        assert execute_query(querier, 42, transport, 0.0, rng=rng).satisfied
        # Probing the owner updated the querier's entry, not the relay's.
        kept = cached(querier.link_cache, 2)
        assert kept is not resident
        assert (kept.ts, kept.num_res) == (0.2, 1)
        assert (resident.ts, resident.num_res) == (0.0, 0)
        resident.ts = 999.0
        resident.num_files = 0
        assert (kept.ts, kept.num_files) == (0.2, 9)


class TestCapacityAndBackoff:
    def _overloaded_pair(self, do_backoff):
        protocol = ProtocolParams(cache_size=10, do_backoff=do_backoff)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        busy = make_peer(1, protocol=protocol, max_probes_per_second=0)
        transport = wire(querier, [busy])
        cache_entries_for(querier, [busy])
        return querier, busy, transport

    def test_refused_probe_counted(self, rng):
        querier, _, transport = self._overloaded_pair(do_backoff=False)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.refused_probes == 1

    def test_refusal_evicts_without_backoff(self, rng):
        querier, _, transport = self._overloaded_pair(do_backoff=False)
        execute_query(querier, 42, transport, 0.0, rng=rng)
        assert 1 not in querier.link_cache

    def test_refusal_keeps_entry_with_backoff(self, rng):
        querier, _, transport = self._overloaded_pair(do_backoff=True)
        execute_query(querier, 42, transport, 0.0, rng=rng)
        assert 1 in querier.link_cache


class TestTimingAndParallelism:
    def test_serial_probe_spacing(self, rng):
        protocol = ProtocolParams(cache_size=10, probe_spacing=0.2)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        others = [make_peer(i, library=frozenset()) for i in range(1, 6)]
        transport = wire(querier, others)
        cache_entries_for(querier, others)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.probes == 5
        assert result.duration == pytest.approx(0.2 * 5)

    def test_parallel_probes_shrink_duration(self, rng):
        protocol = ProtocolParams(
            cache_size=10, probe_spacing=0.2, parallel_probes=5
        )
        querier = make_peer(0, protocol=protocol, library=frozenset())
        others = [make_peer(i, library=frozenset()) for i in range(1, 6)]
        transport = wire(querier, others)
        cache_entries_for(querier, others)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.probes == 5
        # 5 probes in one wave of 5 walkers: duration one spacing.
        assert result.duration == pytest.approx(0.2)

    def test_response_time_reflects_wave_position(self, rng):
        protocol = ProtocolParams(
            cache_size=10, probe_spacing=0.2, parallel_probes=2,
            query_probe="MFS",
        )
        querier = make_peer(0, protocol=protocol, library=frozenset())
        misses = [
            make_peer(i, library=frozenset(), num_files=100 - i)
            for i in range(1, 4)
        ]
        owner = make_peer(9, library=frozenset({42}), num_files=1)
        transport = wire(querier, misses + [owner])
        cache_entries_for(querier, misses + [owner])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        # Owner has fewest files -> probed last (4th probe, wave index 1).
        assert result.satisfied
        assert result.response_time == pytest.approx(0.2 + transport.timeout / 4)

    def test_probe_timestamps_respect_mid_query_death(self, rng):
        """A peer dying between waves must not answer a later probe."""
        protocol = ProtocolParams(
            cache_size=10, probe_spacing=1.0, query_probe="MFS"
        )
        querier = make_peer(0, protocol=protocol, library=frozenset())
        early = make_peer(1, library=frozenset(), num_files=100)
        dies_mid_query = make_peer(
            2, library=frozenset({42}), num_files=1, death_time=0.5
        )
        transport = wire(querier, [early, dies_mid_query])
        cache_entries_for(querier, [early, dies_mid_query])
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        # Probe to peer 2 happens at t=1.0 > death at 0.5 -> dead probe.
        assert not result.satisfied
        assert result.dead_probes == 1
