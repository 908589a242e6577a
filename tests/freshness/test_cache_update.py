"""CacheUpdate handler semantics (push invalidation, repro.freshness)."""

from __future__ import annotations

import pytest

from repro.core.messages import CacheUpdate, CacheUpdateAck, Ping
from repro.resilience.breaker import CLOSED, OPEN
from repro.resilience.policy import ResiliencePolicy
from tests.conftest import make_entry
from tests.core.helpers import keep, make_peer


#: The one resilience policy: breakers, budgets and shedding armed.
ARMED = ResiliencePolicy.all_on()


def seeded_peer(*cached, resilience=None, cache_capacity=None):
    peer = make_peer(
        1, resilience=resilience, cache_capacity=cache_capacity
    )
    for addr in cached:
        assert keep(peer, make_entry(addr))
    return peer


class TestDepartureNotice:
    def test_purges_cached_subject(self):
        peer = seeded_peer(5, 6)
        ok, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=True), 1.0
        )
        assert ok
        assert isinstance(ack, CacheUpdateAck)
        assert ack.purged
        assert 5 not in peer.link_cache
        assert 6 in peer.link_cache

    def test_unknown_subject_reports_not_purged(self):
        peer = seeded_peer(6)
        ok, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=True), 1.0
        )
        assert ok
        assert not ack.purged
        assert 6 in peer.link_cache

    def test_discards_breaker_state_with_the_entry(self):
        peer = seeded_peer(5, resilience=ARMED)
        for _ in range(3):
            peer.breakers.record_refusal(5, 0.5)
        assert peer.breakers.state_of(5) == OPEN
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=True), 1.0
        )
        assert ack.purged
        assert peer.breakers.state_of(5) == CLOSED  # lazily re-created state
        assert len(peer.breakers) == 0

    def test_ack_piggybacks_refresh_pong(self):
        peer = seeded_peer(5, 6, 7)
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=True), 1.0
        )
        addresses = {e.address for e in ack.pong.entries}
        assert addresses  # live carrier offers replacements...
        assert 5 not in addresses  # ...never the just-purged subject


class TestOverloadNotice:
    def test_breaker_armed_receiver_keeps_entry_behind_breaker(self):
        peer = seeded_peer(5, resilience=ARMED)
        # Two refusals of its own; the relayed one is the third.
        for _ in range(2):
            peer.breakers.record_refusal(5, 0.5)
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=False), 1.0
        )
        assert ack.purged  # "held the entry": the interest-path signal
        assert 5 in peer.link_cache  # kept — the breaker does the gating
        assert peer.breakers.state_of(5) == OPEN

    def test_sub_threshold_relay_just_counts(self):
        peer = seeded_peer(5, resilience=ARMED)
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=False), 1.0
        )
        assert ack.purged
        assert 5 in peer.link_cache
        assert peer.breakers.state_of(5) == CLOSED

    def test_plain_receiver_evicts(self):
        peer = seeded_peer(5)
        assert peer.breakers is None
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=False), 1.0
        )
        assert ack.purged
        assert 5 not in peer.link_cache

    def test_unknown_subject_is_noop(self):
        peer = seeded_peer(6)
        _, ack = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=False), 1.0
        )
        assert not ack.purged
        assert 6 in peer.link_cache


class TestRateLimiting:
    def test_update_shed_like_maintenance_traffic(self):
        """CacheUpdate rides the soft-shed lane with pings and gossip:
        above the soft threshold it is refused without burning window
        capacity reserved for queries."""
        peer = make_peer(1, max_probes_per_second=2, resilience=ARMED)
        ok_first, _ = peer.receive_probe(
            Ping(sender=2, sender_num_files=1), 0.0
        )
        assert ok_first
        ok, refusal = peer.receive_probe(
            CacheUpdate(sender=9, subject=5, departed=True), 0.0
        )
        assert not ok
        assert peer.pings_shed >= 1
