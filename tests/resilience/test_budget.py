"""Tests for retry-token budgets: exhaustion, refill, monotonicity."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.resilience.budget import BudgetSpec, RetryBudget


class TestBudgetSpec:
    def test_validates_capacity(self):
        with pytest.raises(ScenarioError):
            BudgetSpec(capacity=0)

    def test_validates_refill_interval(self):
        with pytest.raises(ScenarioError):
            BudgetSpec(refill_interval=0.0)


class TestRetryBudget:
    def test_starts_full(self):
        budget = RetryBudget(BudgetSpec(capacity=5, refill_interval=10.0))
        assert [budget.try_spend(0.0) for _ in range(6)] == [True] * 5 + [False]

    def test_exhaustion_denies(self):
        budget = RetryBudget(BudgetSpec(capacity=3, refill_interval=10.0))
        assert all(budget.try_spend(0.0) for _ in range(3))
        assert not budget.try_spend(0.0)
        assert budget.denied == 1

    def test_refill_restores_spending(self):
        budget = RetryBudget(BudgetSpec(capacity=2, refill_interval=10.0))
        budget.try_spend(0.0)
        budget.try_spend(0.0)
        assert not budget.try_spend(0.0)
        # One full interval mints exactly one token.
        assert budget.try_spend(10.0)
        assert not budget.try_spend(10.0)

    def test_fractional_refill_needs_whole_token(self):
        budget = RetryBudget(BudgetSpec(capacity=2, refill_interval=10.0))
        budget.try_spend(0.0)
        budget.try_spend(0.0)
        assert not budget.try_spend(5.0)  # only half a token banked
        assert budget.try_spend(10.0)  # the half was kept: one whole token
        assert not budget.try_spend(10.0)

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(BudgetSpec(capacity=2, refill_interval=1.0))
        assert [budget.try_spend(1000.0) for _ in range(3)] == [True, True, False]

    def test_out_of_order_consults_are_monotone(self):
        # Retries land at now + accumulated delay while the next query
        # may consult earlier; time must never run backwards.
        budget = RetryBudget(BudgetSpec(capacity=2, refill_interval=10.0))
        budget.try_spend(50.0)
        budget.try_spend(50.0)
        assert not budget.try_spend(40.0)  # stale clock: no un-refill
        assert budget.try_spend(60.0)

    def test_denied_counter_accumulates(self):
        budget = RetryBudget(BudgetSpec(capacity=1, refill_interval=100.0))
        budget.try_spend(0.0)
        for _ in range(4):
            budget.try_spend(0.0)
        assert budget.denied == 4
