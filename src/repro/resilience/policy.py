"""The per-peer resilience policy: which mechanisms are armed.

A :class:`ResiliencePolicy` bundles the three graceful-degradation
mechanisms this package provides — circuit breakers on link-cache
entries, retry-token budgets, and graded load shedding — into one
frozen, picklable value that travels inside
:class:`~repro.experiments.executor.TrialSpec`.  Like
:class:`~repro.resilience.scenarios.ScenarioPlan`, a policy follows the
invisibility contract: ``None`` or an all-off policy arms nothing, the
peers are constructed exactly as before, and every golden trace digest
reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ScenarioError
from repro.resilience.breaker import BreakerSpec
from repro.resilience.budget import BudgetSpec


@dataclass(frozen=True)
class SheddingSpec:
    """Graded load shedding: pings shed before queries.

    ``max_probes_per_second`` today is a cliff: probe ``n`` is served,
    probe ``n + 1`` refused, regardless of what the probes carry.
    Graded shedding adds a *soft* threshold at ``soft_fraction`` of the
    hard limit: once the current one-second window reaches it, the peer
    refuses further **pings** (cheap for the sender to lose — the entry
    just stays unconfirmed) while still serving **queries** up to the
    hard limit, which directly protects satisfaction during a flash
    crowd.

    Attributes:
        soft_fraction: fraction of the hard per-second limit at which
            ping shedding begins, in ``(0, 1]``; 1.0 disables grading
            (the soft and hard thresholds coincide).
    """

    soft_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ScenarioError(
                f"soft_fraction must be in (0, 1], got {self.soft_fraction}"
            )

    @property
    def enabled(self) -> bool:
        """True if the soft threshold sits below the hard limit."""
        return self.soft_fraction < 1.0


@dataclass(frozen=True)
class ResiliencePolicy:
    """Which resilience mechanisms each peer arms, and how.

    Attributes:
        breaker: circuit-breaker tuning, or ``None`` to keep the
            baseline evict-on-refusal behaviour.
        budget: retry-token budget tuning, or ``None`` for uncapped
            retries.
        shedding: graded-shedding tuning, or ``None`` for the binary
            rate-limit cliff.
    """

    breaker: Optional[BreakerSpec] = None
    budget: Optional[BudgetSpec] = None
    shedding: Optional[SheddingSpec] = None

    def is_noop(self) -> bool:
        """True if this policy changes nothing about a run."""
        return (
            self.breaker is None
            and self.budget is None
            and (self.shedding is None or not self.shedding.enabled)
        )

    @classmethod
    def all_on(cls) -> "ResiliencePolicy":
        """Every mechanism armed at its default tuning."""
        return cls(
            breaker=BreakerSpec(),
            budget=BudgetSpec(),
            shedding=SheddingSpec(),
        )

    @staticmethod
    def normalize(
        policy: Optional["ResiliencePolicy"],
    ) -> Optional["ResiliencePolicy"]:
        """Collapse an all-off policy to ``None``.

        The simulation stores the normalized value, so hot paths test a
        single ``is None`` and an all-off policy is structurally
        indistinguishable from no policy at all — the invisibility
        contract in one place.
        """
        if policy is None or policy.is_noop():
            return None
        return policy


# Re-export for the common "construct a policy in one import" case.
__all__ = [
    "BreakerSpec",
    "BudgetSpec",
    "ResiliencePolicy",
    "ScenarioError",
    "SheddingSpec",
]
