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

#: Maximum (and initial) token count of one peer's bucket.
CAPACITY = 10

#: Virtual seconds to mint one token.
REFILL_INTERVAL = 5.0


class RetryBudget:
    """Virtual-time token bucket; one per peer.

    Tokens are fractional internally so refill is exact: waiting half a
    :data:`REFILL_INTERVAL` banks half a token.  ``try_spend`` only grants
    whole tokens.
    """

    __slots__ = ("_tokens", "_last", "denied")

    def __init__(self) -> None:
        self._tokens = float(CAPACITY)
        self._last = 0.0
        #: Retry attempts refused for lack of a token (telemetry).
        self.denied = 0

    def _refill(self, now: float) -> None:
        if now > self._last:
            minted = (now - self._last) / REFILL_INTERVAL
            self._tokens = min(float(CAPACITY), self._tokens + minted)
            self._last = now

    def try_spend(self, now: float) -> bool:
        """Spend one token for a retry attempt; False if exhausted."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.denied += 1
        return False
