"""The per-peer resilience policy: all three mechanisms armed.

A :class:`ResiliencePolicy` arms the three graceful-degradation
mechanisms this package provides — circuit breakers on link-cache
entries (:mod:`~repro.resilience.breaker`), retry-token budgets
(:mod:`~repro.resilience.budget`) and graded load shedding — at the
tuning each module holds as constants.  It is a frozen, picklable value
with no fields that travels inside
:class:`~repro.experiments.executor.TrialSpec`.  ``None`` is the only
"off": it arms nothing, the peers are constructed exactly as before, and
every golden trace digest reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Graded load shedding: once a peer's current one-second window reaches
#: this fraction of ``max_probes_per_second``, it refuses further
#: maintenance traffic (pings, gossip rumors, cache updates — cheap for
#: the sender to lose) while still serving queries up to the hard limit,
#: which protects satisfaction during a flash crowd.
SOFT_FRACTION = 0.5


@dataclass(frozen=True)
class ResiliencePolicy:
    """Breakers, retry budgets and graded shedding, all armed."""

    @classmethod
    def all_on(cls) -> "ResiliencePolicy":
        """Every mechanism armed (the one policy there is)."""
        return cls()
