"""Correlated-failure scenarios and graceful-degradation mechanisms.

This package owns both sides of the resilience story:

* **Scenarios** (:mod:`repro.resilience.scenarios`) — declarative,
  frozen plans for *correlated* trouble: churn storms (mass departures
  inside a window) and flash crowds (query-arrival surges).  They ride
  the same ``is_noop() → None`` invisibility contract as
  :class:`~repro.faults.plan.FaultPlan`.
* **Mechanisms** (:mod:`repro.resilience.policy` and friends) —
  per-peer graceful degradation: circuit breakers on link-cache entries
  (:mod:`~repro.resilience.breaker`), retry-token budgets
  (:mod:`~repro.resilience.budget`), and graded load shedding.
* **Metrics** (:mod:`repro.resilience.recovery`) — time-to-recovery
  derived from the windowed satisfaction counters.

Determinism contracts, statically proven by the effect lint: scenario
draws stay on the ``scenario:*`` RNG substream; breakers, budgets, and
recovery math draw no randomness at all.
"""

from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.recovery import (
    SatisfactionWindow,
    baseline_rate,
    time_to_recovery,
)
from repro.resilience.scenarios import (
    ChurnStorm,
    FlashCrowd,
    ScenarioDriver,
    ScenarioPlan,
)

__all__ = [
    "BreakerBoard",
    "ChurnStorm",
    "CircuitBreaker",
    "FlashCrowd",
    "ResiliencePolicy",
    "RetryBudget",
    "SatisfactionWindow",
    "ScenarioDriver",
    "ScenarioPlan",
    "baseline_rate",
    "time_to_recovery",
]
