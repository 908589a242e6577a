"""Per-peer retry-token budgets.

The retry machinery from PR 3 (:mod:`repro.faults.retry`) is exactly
wrong during a churn storm: every prober independently retries into the
same overloaded or dead targets, multiplying offered load at the moment
the overlay is weakest — the classic retry-amplification spiral.  A
retry *budget* caps that: each peer owns a token bucket; every retry
attempt spends one token, and tokens refill at a fixed rate in virtual
time.  In calm conditions the bucket stays full and behaviour is
unchanged; under a storm the bucket drains and the peer degrades to
single-attempt probes instead of amplifying.

The bucket is order-tolerant: the simulation may consult it from events
that fire at the same virtual instant in any order, and a query's
retries occur at ``now + accumulated delay`` while the *next* query may
start earlier than that; ``last = max(last, now)`` makes refill
monotone regardless.  No randomness, no scheduling, no wall time —
RD006 over this module proves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScenarioError


@dataclass(frozen=True)
class BudgetSpec:
    """Tuning for one peer's retry-token bucket.

    Attributes:
        capacity: maximum (and initial) token count.
        refill_interval: virtual seconds to mint one token.
    """

    capacity: int = 10
    refill_interval: float = 5.0

    def __post_init__(self) -> None:
        # Written so that NaN fails both checks.
        if not self.capacity >= 1:
            raise ScenarioError(
                f"capacity must be >= 1, got {self.capacity}"
            )
        if not self.refill_interval > 0.0:
            raise ScenarioError(
                f"refill_interval must be > 0, got {self.refill_interval}"
            )


class RetryBudget:
    """Virtual-time token bucket; one per peer.

    Tokens are fractional internally so refill is exact: waiting half a
    ``refill_interval`` banks half a token.  ``try_spend`` only grants
    whole tokens.
    """

    __slots__ = ("_spec", "_tokens", "_last", "denied")

    def __init__(self, spec: BudgetSpec) -> None:
        self._spec = spec
        self._tokens = float(spec.capacity)
        self._last = 0.0
        #: Retry attempts refused for lack of a token (telemetry).
        self.denied = 0

    def _refill(self, now: float) -> None:
        if now > self._last:
            minted = (now - self._last) / self._spec.refill_interval
            self._tokens = min(
                float(self._spec.capacity), self._tokens + minted
            )
            self._last = now

    def try_spend(self, now: float) -> bool:
        """Spend one token for a retry attempt; False if exhausted."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.denied += 1
        return False
