"""Tests for retry-token budgets: exhaustion, refill, monotonicity."""

from __future__ import annotations

from repro.resilience.budget import CAPACITY, REFILL_INTERVAL, RetryBudget


def _drained(now=0.0):
    """A budget whose every token was spent at ``now``."""
    budget = RetryBudget()
    assert all(budget.try_spend(now) for _ in range(10))
    return budget


class TestRetryBudget:
    def test_tuning(self):
        assert (CAPACITY, REFILL_INTERVAL) == (10, 5.0)

    def test_starts_full(self):
        budget = RetryBudget()
        assert [budget.try_spend(0.0) for _ in range(11)] == [True] * 10 + [False]

    def test_exhaustion_denies(self):
        budget = _drained()
        assert not budget.try_spend(0.0)
        assert budget.denied == 1

    def test_refill_restores_spending(self):
        budget = _drained()
        assert not budget.try_spend(0.0)
        # One full interval mints exactly one token.
        assert budget.try_spend(5.0)
        assert not budget.try_spend(5.0)

    def test_fractional_refill_needs_whole_token(self):
        budget = _drained()
        assert not budget.try_spend(2.5)  # only half a token banked
        assert budget.try_spend(5.0)  # the half was kept: one whole token
        assert not budget.try_spend(5.0)

    def test_refill_caps_at_capacity(self):
        budget = _drained()
        assert [budget.try_spend(1000.0) for _ in range(11)] == [True] * 10 + [False]

    def test_out_of_order_consults_are_monotone(self):
        # Retries land at now + accumulated delay while the next query
        # may consult earlier; time must never run backwards.
        budget = _drained(now=50.0)
        assert not budget.try_spend(40.0)  # stale clock: no un-refill
        assert budget.try_spend(55.0)

    def test_denied_counter_accumulates(self):
        budget = _drained()
        for _ in range(4):
            budget.try_spend(0.0)
        assert budget.denied == 4
