"""Cache-freshness plans (ROADMAP item 4).

Two mechanisms attack the paper's central cost metric — dead probes
against departed peers — directly, instead of paying for freshness with
ever-faster pings:

* **Push invalidation** (CUP, Roussopoulos & Baker): when a peer departs
  (or an overloaded peer trips a prober's circuit breaker), its former
  contacts are *told* via :class:`~repro.core.messages.CacheUpdate`
  exchanges instead of discovering the staleness one dead probe at a
  time.  Each notice's acknowledgement piggybacks a Pong of replacement
  candidates, so a purge is also a refresh.  Propagation follows
  interest paths: a contact that actually held the stale entry forwards
  the notice to up to ``notify_budget`` of its own contacts, for at most
  ``depth`` hops.

* **Heterogeneous cache sizing** (Sarshar & Roychowdhury): replace the
  single global ``ProtocolParams.cache_size`` with per-peer link-cache
  capacities scaled around that base — proportional to the peer's
  advertised library size (the simulation's capacity proxy) or drawn
  from a normalized power law.

Both compose into one frozen, picklable :class:`FreshnessPlan` following
the established invisibility-gated plan pattern:
:meth:`~repro.freshness.mediator.FreshnessMediator.from_plan` returns
``None`` for a missing/no-op plan, so disabled freshness keeps the exact
pre-freshness code paths and every golden trace digest bit-identical.
All armed randomness draws from dedicated ``freshness:*`` substreams
(statically enforced by an RD007 contract in ``effect_contracts.toml``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.errors import FreshnessError

#: Per-peer link-cache capacity policies.
CACHE_SIZING_POLICIES: Tuple[str, ...] = ("uniform", "proportional", "power-law")

#: File count that maps to exactly the base capacity under
#: ``"proportional"`` sizing (the median sharer's library).
REFERENCE_FILES = 100

#: Pareto shape of ``"power-law"`` sizing; above 1, so the mean factor is
#: finite (the draw is normalized to mean 1).
ALPHA = 2.0

#: Virtual seconds between a notice's propagation hops (through the
#: engine, so the fault layer applies).
NOTIFY_DELAY = 0.05


@dataclass(frozen=True)
class CacheSizing:
    """Per-peer link-cache capacity policy (picklable, frozen).

    Capacities are scaled around the global ``ProtocolParams.cache_size``
    base, so a sweep stays budget-matched: the *mean* capacity under
    every policy is (approximately) the base.

    Attributes:
        policy: ``"uniform"`` (every peer gets the base — the documented
            no-op), ``"proportional"`` (capacity scales linearly with the
            peer's advertised file count, normalized by
            :data:`REFERENCE_FILES`), or ``"power-law"`` (capacity is the
            base times a normalized Pareto factor with shape
            :data:`ALPHA`, drawn on the ``freshness:sizing`` substream).
        min_capacity: floor applied after scaling (0 allows cacheless
            peers — a zero-slot :class:`~repro.core.link_cache.LinkCache`
            refuses every insert).
        max_capacity: ceiling applied after scaling; 0 disables the
            ceiling.
    """

    policy: str = "uniform"
    min_capacity: int = 1
    max_capacity: int = 0

    def __post_init__(self) -> None:
        if self.policy not in CACHE_SIZING_POLICIES:
            raise FreshnessError(
                f"policy must be one of {CACHE_SIZING_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.min_capacity < 0:
            raise FreshnessError(
                f"min_capacity must be >= 0, got {self.min_capacity}"
            )
        if self.max_capacity < 0:
            raise FreshnessError(
                f"max_capacity must be >= 0, got {self.max_capacity}"
            )
        if self.max_capacity and self.max_capacity < self.min_capacity:
            raise FreshnessError(
                f"max_capacity {self.max_capacity} must be >= "
                f"min_capacity {self.min_capacity}"
            )

    def is_noop(self) -> bool:
        """True when every peer would get exactly the base capacity."""
        return self.policy == "uniform"

    def capacity_for(
        self, base: int, num_files: int, rng: random.Random
    ) -> int:
        """The link-cache capacity for one newborn peer.

        ``"proportional"`` is draw-free (pure function of the already
        drawn ``num_files``); ``"power-law"`` makes exactly one draw on
        ``rng`` per peer.  The caller passes the ``freshness:sizing``
        substream, keeping protocol streams untouched.
        """
        if self.policy == "proportional":
            factor = num_files / REFERENCE_FILES
        elif self.policy == "power-law":
            # Pareto(alpha) has mean alpha/(alpha-1); rescale to mean 1
            # so the population's expected capacity stays at the base.
            factor = rng.paretovariate(ALPHA) * (ALPHA - 1.0) / ALPHA
        else:
            return base
        capacity = max(self.min_capacity, round(base * factor))
        if self.max_capacity:
            capacity = min(capacity, self.max_capacity)
        return capacity


@dataclass(frozen=True)
class FreshnessPlan:
    """Push invalidation + heterogeneous cache sizing (picklable, frozen).

    Attributes:
        notify_budget: maximum contacts notified per invalidation hop
            (the departing/overloaded peer's former contacts at hop 0,
            then each interested forwarder's own contacts).  0 disables
            push invalidation entirely.
        depth: maximum propagation hops along interest paths; 1 notifies
            only the subject's direct contacts.  0 disables push
            invalidation entirely.
        sizing: the per-peer capacity policy (:class:`CacheSizing`).

    Hops are :data:`NOTIFY_DELAY` apart.  Besides departures, a
    maintenance ping that trips the prober's circuit breaker (the target
    shed load past the failure threshold) sends a notice wave about the
    overloaded address; that needs an armed
    :class:`~repro.resilience.policy.ResiliencePolicy` to ever fire.

    ``notify_budget=0`` (or ``depth=0``) with uniform sizing is the
    documented no-op: :meth:`~repro.freshness.mediator.FreshnessMediator.\
from_plan` returns ``None`` and trace digests are bit-identical to a run
    with no plan at all.
    """

    notify_budget: int = 0
    depth: int = 1
    sizing: CacheSizing = CacheSizing()

    def __post_init__(self) -> None:
        if self.notify_budget < 0:
            raise FreshnessError(
                f"notify_budget must be >= 0, got {self.notify_budget}"
            )
        if self.depth < 0:
            raise FreshnessError(f"depth must be >= 0, got {self.depth}")
        if not isinstance(self.sizing, CacheSizing):
            raise FreshnessError(
                f"sizing must be a CacheSizing, got {type(self.sizing).__name__}"
            )

    @property
    def invalidates(self) -> bool:
        """Whether push invalidation can ever send a notice."""
        return self.notify_budget > 0 and self.depth > 0

    def is_noop(self) -> bool:
        """True when the plan cannot change anything."""
        return not self.invalidates and self.sizing.is_noop()

    def with_(self, **changes: object) -> "FreshnessPlan":
        """A copy with the given fields replaced (validation re-runs)."""
        from dataclasses import replace

        return replace(self, **changes)  # type: ignore[arg-type]
