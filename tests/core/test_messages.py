"""Tests for wire messages."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.messages import (
    CacheUpdate,
    CacheUpdateAck,
    GossipAck,
    GossipPush,
    Ping,
    Pong,
    Query,
    QueryReply,
    Refusal,
)
from repro.network.transport import ProbeOutcome, ProbeStatus
from tests.conftest import make_entry


class TestMessages:
    def test_ping_fields(self):
        ping = Ping(sender=3, sender_num_files=7)
        assert ping.sender == 3
        assert ping.sender_num_files == 7

    def test_query_fields(self):
        query = Query(sender=1, target_file=42, sender_num_files=5)
        assert query.target_file == 42

    def test_pong_coerces_entries_to_tuple(self):
        pong = Pong(sender=1, entries=[make_entry(2), make_entry(3)])
        assert isinstance(pong.entries, tuple)
        assert [e.address for e in pong.entries] == [2, 3]

    def test_pong_default_empty(self):
        assert Pong(sender=1).entries == ()

    def test_query_reply_carries_pong(self):
        pong = Pong(sender=2, entries=(make_entry(9),))
        reply = QueryReply(sender=2, num_results=1, pong=pong)
        assert reply.num_results == 1
        assert reply.pong.entries[0].address == 9

    def test_refusal(self):
        assert Refusal(sender=5).sender == 5

    def test_messages_are_frozen(self):
        """Every wire record, dataclass or named tuple, refuses assignment."""
        records = [
            Ping(sender=1),
            Query(sender=1, target_file=2),
            Pong(sender=1, entries=(make_entry(2),)),
            QueryReply(sender=1, num_results=0, pong=Pong(sender=1)),
            Refusal(sender=1),
            GossipPush(sender=1, origin=2),
            GossipAck(sender=1),
            CacheUpdate(sender=1, subject=2),
            CacheUpdateAck(sender=1, purged=False, pong=Pong(sender=1)),
            ProbeOutcome(status=ProbeStatus.TIMEOUT, rtt=0.2),
        ]
        for record in records:
            if dataclasses.is_dataclass(record):
                names = [field.name for field in dataclasses.fields(record)]
            else:
                names = record._fields
            assert names
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(record, name, 2)
            # No ``__dict__`` to grow either (a slotted frozen dataclass
            # raises TypeError here, a named tuple AttributeError).
            with pytest.raises((AttributeError, TypeError)):
                record.not_a_field = 2
