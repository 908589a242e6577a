"""Tests for the good-peer behaviour."""

from __future__ import annotations

import pytest

from repro.core.messages import Ping, Pong, Query, QueryReply, Refusal
from repro.core.params import ProtocolParams
from tests.conftest import cached, make_entry
from tests.core.helpers import keep, make_peer


class TestLiveness:
    def test_alive_within_lifetime(self):
        peer = make_peer(1, birth_time=10.0, death_time=20.0)
        assert not peer.is_alive(9.9)
        assert peer.is_alive(10.0)
        assert peer.is_alive(19.9)
        assert not peer.is_alive(20.0)

    def test_death_must_follow_birth(self):
        with pytest.raises(ValueError):
            make_peer(1, birth_time=5.0, death_time=5.0)


class TestPingHandling:
    def test_ping_returns_pong(self):
        peer = make_peer(1)
        accepted, response = peer.receive_probe(Ping(sender=2), 1.0)
        assert accepted
        assert isinstance(response, Pong)
        assert peer.probes_received == 1

    def test_pong_entries_are_copies(self):
        """A pong shows the responder's residents; the keeper clones them."""
        responder = make_peer(1)
        resident = make_entry(5, ts=1.0, num_files=3, num_res=2)
        assert keep(responder, resident)
        _, pong = responder.receive_probe(Ping(sender=2), 1.0)
        assert pong.entries[0] is resident
        prober = make_peer(2)
        assert prober.import_pong_to_link_cache(pong, 1.0) == 1
        kept = cached(prober.link_cache, 5)
        assert kept is not resident
        resident.ts = 999.0
        resident.num_res = 7
        assert (kept.ts, kept.num_files, kept.num_res) == (1.0, 3, 2)
        assert cached(responder.link_cache, 5).ts == 999.0

    def test_pong_respects_pong_size(self):
        protocol = ProtocolParams(cache_size=20, pong_size=3)
        peer = make_peer(1, protocol=protocol)
        for a in range(2, 12):
            peer.link_cache.insert(
                make_entry(a), peer.policies.replacement, peer._policy_rng
            )
        _, pong = peer.receive_probe(Ping(sender=99), 1.0)
        assert len(pong.entries) == 3

    def test_pong_from_empty_cache(self):
        peer = make_peer(1)
        _, pong = peer.receive_probe(Ping(sender=2), 1.0)
        assert pong.entries == ()


class TestQueryHandling:
    def test_match_returns_result(self):
        peer = make_peer(1, library=frozenset({42}))
        accepted, reply = peer.receive_probe(
            Query(sender=2, target_file=42), 1.0
        )
        assert accepted
        assert isinstance(reply, QueryReply)
        assert reply.num_results == 1
        assert peer.probes_received == 1

    def test_no_match_returns_zero_with_pong(self):
        peer = make_peer(1, library=frozenset({42}))
        _, reply = peer.receive_probe(Query(sender=2, target_file=7), 1.0)
        assert reply.num_results == 0
        assert isinstance(reply.pong, Pong)

    def test_queries_counted(self):
        peer = make_peer(1)
        peer.receive_probe(Query(sender=2, target_file=1), 1.0)
        peer.receive_probe(Query(sender=3, target_file=2), 1.0)
        assert peer.probes_received == 2

    def test_unknown_message_type_rejected(self):
        peer = make_peer(1)
        with pytest.raises(TypeError):
            peer.receive_probe("garbage", 1.0)


class TestCapacity:
    def test_refuses_beyond_limit(self):
        peer = make_peer(1, max_probes_per_second=2)
        assert peer.receive_probe(Ping(sender=2), 0.1)[0]
        assert peer.receive_probe(Ping(sender=3), 0.2)[0]
        accepted, response = peer.receive_probe(Ping(sender=4), 0.3)
        assert not accepted
        assert isinstance(response, Refusal)
        assert peer.probes_refused == 1
        assert peer.probes_received == 3

    def test_fresh_second_accepts_again(self):
        peer = make_peer(1, max_probes_per_second=1)
        assert peer.receive_probe(Ping(sender=2), 0.5)[0]
        assert not peer.receive_probe(Ping(sender=3), 0.6)[0]
        assert peer.receive_probe(Ping(sender=4), 1.5)[0]

    def test_unlimited_never_refuses(self):
        peer = make_peer(1, max_probes_per_second=None)
        for i in range(100):
            assert peer.receive_probe(Ping(sender=2), 0.01)[0]


class TestIntroduction:
    def test_prober_introduced_with_probability(self):
        protocol = ProtocolParams(cache_size=50, intro_prob=1.0)
        peer = make_peer(1, protocol=protocol)
        peer.receive_probe(Ping(sender=2, sender_num_files=9), 3.0)
        entry = cached(peer.link_cache, 2)
        assert entry is not None
        assert entry.num_files == 9
        assert entry.ts == 3.0
        assert entry.num_res == 0

    def test_no_introduction_at_zero_prob(self):
        protocol = ProtocolParams(cache_size=50, intro_prob=0.0)
        peer = make_peer(1, protocol=protocol)
        peer.receive_probe(Ping(sender=2), 1.0)
        assert 2 not in peer.link_cache

    def test_introduction_rate_statistical(self):
        protocol = ProtocolParams(cache_size=10_000, intro_prob=0.1)
        peer = make_peer(1, protocol=protocol)
        for sender in range(2, 2002):
            peer.receive_probe(Ping(sender=sender), 1.0)
        assert 120 <= len(peer.link_cache) <= 280  # ~200 expected

    def test_existing_entry_not_reintroduced(self):
        protocol = ProtocolParams(cache_size=50, intro_prob=1.0)
        peer = make_peer(1, protocol=protocol)
        peer.receive_probe(Ping(sender=2, sender_num_files=9), 3.0)
        peer.receive_probe(Ping(sender=2, sender_num_files=77), 5.0)
        assert cached(peer.link_cache, 2).num_files == 9


class TestImportPong:
    def test_import_inserts_copies(self):
        peer = make_peer(1)
        shared = make_entry(5, num_files=10)
        pong = Pong(sender=2, entries=(shared,))
        inserted = peer.import_pong_to_link_cache(pong, 1.0)
        assert inserted == 1
        shared.num_files = 999
        assert cached(peer.link_cache, 5).num_files == 10

    def test_import_honours_reset_num_results(self):
        protocol = ProtocolParams(cache_size=10, reset_num_results=True)
        peer = make_peer(1, protocol=protocol)
        pong = Pong(sender=2, entries=(make_entry(5, num_res=9),))
        peer.import_pong_to_link_cache(pong, 1.0)
        assert cached(peer.link_cache, 5).num_res == 0

    def test_import_without_reset_keeps_num_res(self):
        peer = make_peer(1)
        pong = Pong(sender=2, entries=(make_entry(5, num_res=9),))
        peer.import_pong_to_link_cache(pong, 1.0)
        assert cached(peer.link_cache, 5).num_res == 9

    def test_import_skips_own_address(self):
        peer = make_peer(1)
        pong = Pong(sender=2, entries=(make_entry(1),))
        assert peer.import_pong_to_link_cache(pong, 1.0) == 0


class TestInitiatorHelpers:
    def test_choose_ping_target_empty_cache(self):
        assert make_peer(1).choose_ping_target() is None

    def test_choose_ping_target_uses_policy(self):
        protocol = ProtocolParams(cache_size=10, ping_probe="MFS")
        peer = make_peer(1, protocol=protocol)
        for a, files in ((2, 5), (3, 50), (4, 1)):
            peer.link_cache.insert(
                make_entry(a, num_files=files),
                peer.policies.replacement, peer._policy_rng,
            )
        assert peer.choose_ping_target().address == 3

    def test_ping_and_query_messages(self):
        peer = make_peer(1, num_files=12)
        assert peer.ping_message() == Ping(sender=1, sender_num_files=12)
        query = peer.query_message(8)
        assert query.target_file == 8
        assert query.sender_num_files == 12
