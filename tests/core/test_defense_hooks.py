"""Tests for the GuessPeer.defense hooks in the core paths.

The hooks exist for :mod:`repro.extensions.detection`, but their
contract — provenance reported on import, dead/answer outcomes reported
from the search loop, blacklisted peers skipped everywhere — is core
behaviour and is tested here with a scriptable fake.
"""

from __future__ import annotations

import random

import pytest

from repro.core.messages import Pong
from repro.core.params import ProtocolParams
from repro.core.search import execute_query
from repro.network.transport import Transport
from tests.conftest import make_entry
from tests.core.helpers import make_peer


class FakeDefense:
    """Records every hook call; blocks a configurable address set."""

    def __init__(self, blocked=()):
        self._blocked = set(blocked)
        self.imports = []
        self.deaths = []
        self.answers = []

    def record_import(self, entry_address, source):
        self.imports.append((entry_address, source))

    def record_dead(self, address):
        self.deaths.append(address)

    def record_answer(self, address, num_results):
        self.answers.append((address, num_results))

    def blocked(self, address):
        return address in self._blocked


@pytest.fixture
def rng():
    return random.Random(41)


class TestImportHooks:
    def test_ping_pong_import_reports_provenance(self):
        peer = make_peer(1)
        peer.defense = FakeDefense()
        pong = Pong(sender=9, entries=(make_entry(5), make_entry(6)))
        peer.import_pong_to_link_cache(pong, 1.0)
        assert peer.defense.imports == [(5, 9), (6, 9)]

    def test_blocked_source_pong_ignored(self):
        peer = make_peer(1)
        peer.defense = FakeDefense(blocked={9})
        pong = Pong(sender=9, entries=(make_entry(5),))
        assert peer.import_pong_to_link_cache(pong, 1.0) == 0
        assert 5 not in peer.link_cache

    def test_blocked_entry_skipped_but_rest_imported(self):
        peer = make_peer(1)
        peer.defense = FakeDefense(blocked={5})
        pong = Pong(sender=9, entries=(make_entry(5), make_entry(6)))
        assert peer.import_pong_to_link_cache(pong, 1.0) == 1
        assert 5 not in peer.link_cache
        assert 6 in peer.link_cache

    def test_no_defense_means_plain_import(self):
        peer = make_peer(1)
        pong = Pong(sender=9, entries=(make_entry(5),))
        assert peer.import_pong_to_link_cache(pong, 1.0) == 1


class TestSearchHooks:
    def _network(self, defense):
        protocol = ProtocolParams(cache_size=20)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        querier.defense = defense
        transport = Transport()
        transport.register(0, querier)
        dead_addr = 7  # never registered: probing it times out
        live = make_peer(3, protocol=protocol, library=frozenset({42}))
        transport.register(3, live)
        for address in (dead_addr, 3):
            querier.link_cache.insert(
                make_entry(address), querier.policies.replacement, querier._policy_rng,
            )
        return querier, transport

    def test_dead_and_answer_outcomes_reported(self, rng):
        defense = FakeDefense()
        querier, transport = self._network(defense)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        assert result.satisfied
        assert defense.deaths in ([7], [])  # dead peer may not be probed
        if defense.deaths:
            assert defense.deaths == [7]
        assert (3, 1) in defense.answers or result.probes == 1

    def test_blocked_target_never_probed(self, rng):
        defense = FakeDefense(blocked={3})
        querier, transport = self._network(defense)
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        # The only owner is blacklisted: query cannot satisfy, and the
        # blocked peer was evicted without a probe.
        assert not result.satisfied
        assert 3 not in querier.link_cache
        assert transport._directory[3].probes_received == 0

    def test_blocked_pong_entries_not_pooled(self, rng):
        protocol = ProtocolParams(cache_size=20, pong_size=5)
        querier = make_peer(0, protocol=protocol, library=frozenset())
        querier.defense = FakeDefense(blocked={50})
        relay = make_peer(2, protocol=protocol, library=frozenset())
        owner_blocked = make_peer(50, protocol=protocol, library=frozenset({42}))
        transport = Transport()
        for peer in (querier, relay, owner_blocked):
            transport.register(peer.address, peer)
        relay.link_cache.insert(
            make_entry(50), relay.policies.replacement, relay._policy_rng
        )
        querier.link_cache.insert(
            make_entry(2), querier.policies.replacement,
            querier._policy_rng,
        )
        result = execute_query(querier, 42, transport, 0.0, rng=rng)
        # The pong pointed at the blocked owner; it must not be probed.
        assert not result.satisfied
        assert owner_blocked.probes_received == 0
