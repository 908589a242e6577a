"""Selfish peers and probe payments (paper §3.3).

    "Rather than iteratively probe peers on a query, a selfish peer can
    simply probe thousands of peers at a time. ... One straightforward
    proposal is to have peers 'pay' for each probe."

Two pieces:

* :func:`execute_selfish_query` — the threat: the querying peer blasts
  every candidate it knows (link cache plus chained pongs) in maximal
  parallel waves, ignoring the serial protocol.  Response time is
  excellent; the probe bill lands on everyone else.
* :class:`ProbeBudget` — the deterrent: a token bucket charging one
  credit per probe, refilled at a sustainable rate.  Passing a budget to
  either search caps the damage a selfish peer can do and leaves
  protocol-abiding peers unaffected (their probe rate sits far below
  any sane refill rate).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.peer import GuessPeer
from repro.core.search import QueryResult, execute_query
from repro.errors import ConfigError
from repro.extensions.adaptive_search import EscalatingWidth
from repro.network.transport import Transport


class ProbeBudget:
    """Token-bucket probe allowance.

    Args:
        refill_rate: credits per second of sustainable probing.
        capacity: bucket depth (burst allowance).
        initial: starting credit (defaults to a full bucket).

    Example::

        budget = ProbeBudget(refill_rate=1.0, capacity=50)
        allowance = budget.available(now)   # how many probes I may send
        budget.spend(now, probes_used)
    """

    def __init__(
        self,
        refill_rate: float,
        capacity: float,
        initial: Optional[float] = None,
    ) -> None:
        if not refill_rate >= 0:  # written so that NaN fails
            raise ConfigError(f"refill_rate must be >= 0, got {refill_rate}")
        if not 0 < capacity < float("inf"):
            raise ConfigError(f"capacity must be > 0 and finite, got {capacity}")
        self.refill_rate = float(refill_rate)
        self.capacity = float(capacity)
        self._credit = float(capacity if initial is None else initial)
        if not 0 <= self._credit <= capacity:
            raise ConfigError(
                f"initial credit must be in [0, {capacity}], got {initial}"
            )
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self._credit = min(
                self.capacity,
                self._credit + (now - self._last_refill) * self.refill_rate,
            )
            self._last_refill = now

    def available(self, now: float) -> int:
        """Whole probes affordable at time ``now``."""
        self._refill(now)
        return int(self._credit)

    def spend(self, now: float, probes: int) -> None:
        """Debit ``probes`` credits (clamped at zero; overdraft means the
        spender is cut off until the bucket refills)."""
        if probes < 0:
            raise ConfigError(f"probes must be >= 0, got {probes}")
        self._refill(now)
        self._credit = max(0.0, self._credit - probes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeBudget(credit={self._credit:.1f}/{self.capacity:.0f}, "
            f"rate={self.refill_rate}/s)"
        )


def execute_selfish_query(
    peer: GuessPeer,
    target_file: int,
    transport: Transport,
    now: float,
    *,
    rng: random.Random,
    desired_results: int = 1,
    budget: Optional[ProbeBudget] = None,
) -> QueryResult:
    """The selfish strategy: probe everything at once.

    Implemented as the core search with the wave width thrown wide open
    (every known candidate goes out in the first wave; chained pong
    candidates go out in the next).  With a :class:`ProbeBudget`, the
    probe count is capped at the spender's current allowance — the
    paper's payment-based deterrent.

    Returns:
        A :class:`~repro.core.search.QueryResult`.  ``duration`` is near
        zero (that is the point of being selfish); the cost shows up in
        everyone else's load.
    """
    max_probes: Optional[int] = None
    if budget is not None:
        max_probes = budget.available(now)
        if max_probes == 0:
            # Broke: the selfish peer cannot probe at all this round.
            return QueryResult(
                satisfied=False, results=0, probes=0, good_probes=0,
                dead_probes=0, refused_probes=0, duration=0.0,
                response_time=None, pool_exhausted=False,
            )

    # A "wave" as wide as the whole network: every candidate the peer
    # ever learns of during the query is in flight essentially at once.
    blast = max(1, len(peer.link_cache) * 64)
    result = execute_query(
        peer,
        target_file,
        transport,
        now,
        rng=rng,
        desired_results=desired_results,
        max_probes=max_probes,
        width=EscalatingWidth(blast, ceiling=blast),
    )
    if budget is not None:
        budget.spend(now, result.probes)
    return result
