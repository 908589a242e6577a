"""Tests for adaptive k-parallel probing."""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.errors import ConfigError
from repro.extensions.adaptive_search import execute_adaptive_query
from repro.network.transport import Transport
from tests.conftest import make_entry
from tests.core.helpers import make_peer


@pytest.fixture
def rng():
    return random.Random(77)


def build_network(num_misses, owner_files=None, protocol=None):
    """A querier caching ``num_misses`` fruitless peers (+ optional owner)."""
    protocol = protocol or ProtocolParams(
        cache_size=200, query_probe="MFS", probe_spacing=0.2
    )
    querier = make_peer(0, protocol=protocol, library=frozenset())
    transport = Transport()
    transport.register(0, querier)
    peers = []
    for i in range(1, num_misses + 1):
        peer = make_peer(
            i, protocol=protocol, library=frozenset(), num_files=1000 - i
        )
        transport.register(i, peer)
        peers.append(peer)
    if owner_files is not None:
        owner = make_peer(
            999, protocol=protocol, library=frozenset({42}),
            num_files=owner_files,
        )
        transport.register(999, owner)
        peers.append(owner)
    for peer in peers:
        querier.link_cache.insert(
            make_entry(peer.address, num_files=peer.num_files),
            querier.policies.replacement, querier._policy_rng,
        )
    return querier, transport


class TestEscalation:
    def test_rare_item_escalates_and_finishes_faster(self, rng):
        """Owner ranked last under MFS: adaptive beats serial duration."""
        querier, transport = build_network(60, owner_files=1)
        adaptive = execute_adaptive_query(
            querier, 42, transport, 0.0, rng=rng,
            initial_walkers=1, escalation_period=3, max_walkers=16,
        )
        assert adaptive.satisfied
        # Serial would need 61 waves (12.2s); escalation compresses that.
        assert adaptive.duration < 61 * 0.2

    def test_popular_item_stays_serial(self, rng):
        """A first-probe hit must cost exactly one probe, like the spec."""
        querier, transport = build_network(0, owner_files=10_000)
        result = execute_adaptive_query(
            querier, 42, transport, 0.0, rng=rng,
            initial_walkers=1, escalation_period=3,
        )
        assert result.satisfied
        assert result.probes == 1

    def test_max_walkers_bounds_overshoot(self, rng):
        querier, transport = build_network(100)  # nobody owns the file
        result = execute_adaptive_query(
            querier, 42, transport, 0.0, rng=rng,
            initial_walkers=1, escalation_period=1, max_walkers=4,
        )
        assert not result.satisfied
        assert result.probes == 100  # everything probed exactly once

    def test_unsatisfied_reports_pool_exhaustion(self, rng):
        querier, transport = build_network(10)
        result = execute_adaptive_query(querier, 42, transport, 0.0, rng=rng)
        assert not result.satisfied
        assert result.pool_exhausted

    def test_dry_run_resets_on_success(self, rng):
        """desired_results=2 with two owners: escalation counter resets."""
        protocol = ProtocolParams(cache_size=200, probe_spacing=0.2)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        transport = Transport()
        transport.register(0, querier)
        for i in range(1, 30):
            library = frozenset({42}) if i in (5, 25) else frozenset()
            peer = make_peer(i, protocol=protocol, library=library)
            transport.register(i, peer)
            querier.link_cache.insert(
                make_entry(i), querier.policies.replacement, querier._policy_rng,
            )
        result = execute_adaptive_query(
            querier, 42, transport, 0.0, rng=rng,
            desired_results=2, escalation_period=2, max_walkers=8,
        )
        assert result.satisfied
        assert result.results == 2


class TestImportedPointerAge:
    def test_admitted_pong_entries_are_born_at_the_query(self, rng):
        """An imported pointer's ``born`` is when *this* peer learned it.

        The stale/fresh dead-probe split compares ``born`` with the
        target's departure time, so an import stamped 0.0 would be
        booked stale however late it was acquired.
        """
        querier, transport = build_network(3)
        known = set(querier.link_cache.addresses())
        for holder in (1, 2, 3):
            peer = transport._directory[holder]
            for address in range(10 * holder, 10 * holder + 4):
                # Live, or the query's own dead probe evicts the import.
                transport.register(
                    address,
                    make_peer(address, protocol=peer.protocol, library=frozenset()),
                )
                peer.link_cache.insert(
                    make_entry(address), peer.policies.replacement,
                    peer._policy_rng,
                )
        execute_adaptive_query(querier, 42, transport, 50.0, rng=rng)
        learned = [
            entry for entry in querier.link_cache.entries()
            if entry.address not in known
        ]
        assert learned
        assert all(entry.born >= 50.0 for entry in learned)


class TestValidation:
    def test_rejects_bad_params(self, rng):
        querier, transport = build_network(1)
        with pytest.raises(ConfigError):
            execute_adaptive_query(
                querier, 42, transport, 0.0, rng=rng, initial_walkers=0
            )
        with pytest.raises(ConfigError):
            execute_adaptive_query(
                querier, 42, transport, 0.0, rng=rng,
                initial_walkers=4, max_walkers=2,
            )
        with pytest.raises(ConfigError):
            execute_adaptive_query(
                querier, 42, transport, 0.0, rng=rng, escalation_period=0
            )
