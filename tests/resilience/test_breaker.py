"""Tests for circuit breakers, including exact cool-down boundaries."""

from __future__ import annotations

from repro.resilience.breaker import (
    CLOSED,
    COOLDOWN,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)


def _refuse(breaker, times):
    """Drive ``breaker`` with one refusal at each of ``times``."""
    for now in times:
        breaker.record_refusal(now)


class TestCircuitBreaker:
    def _tripped(self, now=100.0):
        breaker = CircuitBreaker()
        _refuse(breaker, [now] * 3)
        return breaker

    def test_tuning(self):
        assert (FAILURE_THRESHOLD, COOLDOWN) == (3, 30.0)

    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow(0.0)

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker()
        _refuse(breaker, [10.0, 11.0])
        assert breaker.state == CLOSED
        breaker.record_refusal(12.0)
        assert breaker.state == OPEN
        assert breaker.open_until == 12.0 + 30.0

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker()
        _refuse(breaker, [10.0, 11.0])
        breaker.record_success()
        _refuse(breaker, [12.0, 13.0])
        assert breaker.state == CLOSED

    def test_open_suppresses_before_boundary(self):
        breaker = self._tripped(now=100.0)
        assert not breaker.allow(129.999)
        assert breaker.state == OPEN

    def test_half_open_exactly_at_boundary(self):
        # now >= open_until is inclusive: the trial probe goes out at
        # the exact cool-down expiry instant.
        breaker = self._tripped(now=100.0)
        assert breaker.allow(130.0)
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = self._tripped()
        breaker.allow(130.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0

    def test_half_open_refusal_reopens_with_fresh_cooldown(self):
        breaker = self._tripped(now=100.0)
        breaker.allow(130.0)
        breaker.record_refusal(130.0)
        assert breaker.state == OPEN
        assert breaker.open_until == 160.0
        assert not breaker.allow(159.999)
        assert breaker.allow(160.0)


class TestBreakerBoard:
    def test_unknown_address_allowed(self):
        board = BreakerBoard()
        assert board.allow(42, 0.0)
        assert board.state_of(42) == CLOSED
        assert len(board) == 0

    def test_refusals_create_and_trip(self):
        board = BreakerBoard()
        board.record_refusal(42, 4.0)
        assert len(board) == 1
        board.record_refusal(42, 5.0)
        assert board.allow(42, 5.0)
        board.record_refusal(42, 6.0)
        assert board.state_of(42) == OPEN
        assert not board.allow(42, 35.9)
        assert board.allow(42, 36.0)

    def test_success_only_touches_existing(self):
        board = BreakerBoard()
        board.record_success(42)
        assert len(board) == 0

    def test_discard_forgets_state(self):
        board = BreakerBoard()
        for _ in range(3):
            board.record_refusal(42, 5.0)
        assert not board.allow(42, 6.0)
        board.discard(42)
        assert board.allow(42, 6.0)
        assert len(board) == 0

    def test_addresses_independent(self):
        board = BreakerBoard()
        for _ in range(3):
            board.record_refusal(1, 5.0)
        assert not board.allow(1, 6.0)
        assert board.allow(2, 6.0)
