"""The armed-freshness mediator (capacity assignment + push invalidation).

Holds a :class:`~repro.freshness.plan.FreshnessPlan`, the two
``freshness:*`` streams all freshness randomness comes from, and the
simulation its one notice-hop handler sends probes in;
:class:`~repro.core.network_sim.GuessSimulation` only asks for a
capacity at spawn and reports deaths and refused pings.  Build
via :meth:`FreshnessMediator.from_plan`, which returns ``None`` for
disabled plans — the invisibility contract every optional subsystem here
follows (:class:`~repro.faults.injector.FaultInjector`,
:class:`~repro.resilience.scenarios.ScenarioDriver`,
:class:`~repro.baselines.gossip.GossipRelay`).
"""

from __future__ import annotations

from itertools import filterfalse
from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from repro.core.messages import CacheUpdate, CacheUpdateAck
from repro.freshness.plan import NOTIFY_DELAY, FreshnessPlan
from repro.network.address import Address
from repro.network.transport import ProbeStatus
from repro.resilience.breaker import OPEN
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # annotation-only: network_sim imports this module
    from repro.core.network_sim import GuessSimulation
    from repro.core.peer import GuessPeer


class FreshnessMediator:
    """Randomness, policy decisions and notice hops of an armed plan."""

    __slots__ = ("plan", "_notify_rng", "_sizing_rng", "_sim", "_handler")

    def __init__(
        self, plan: FreshnessPlan, rng: RngRegistry, sim: GuessSimulation
    ) -> None:
        self.plan = plan
        # Literal stream names: the RD007 contract proves the
        # ``freshness:`` prefix statically.
        self._notify_rng = rng.stream("freshness:notify")
        self._sizing_rng = rng.stream("freshness:sizing")
        # Reached for engine, transport, peer store and collector, and
        # only when a notice is sent.
        self._sim = sim
        # Bound once: every pending hop event holds this one object.
        self._handler = self._hop

    @classmethod
    def from_plan(
        cls, plan: Optional[FreshnessPlan], rng: RngRegistry, sim: GuessSimulation
    ) -> Optional[FreshnessMediator]:
        """The mediator for ``plan``, or None if the plan can do nothing.

        Returning None (not an inert mediator) is what makes the
        disabled plan contractually invisible: peer spawning and the
        death path take their pre-freshness branches unchanged, with
        zero extra draws or scheduled events.
        """
        if plan is None or plan.is_noop():
            return None
        return cls(plan, rng, sim)

    def cache_capacity(self, base: int, num_files: int) -> int:
        """Per-peer link-cache capacity for one newborn.

        Exactly one ``freshness:sizing`` draw under ``"power-law"``,
        none otherwise — uniform sizing under an armed (invalidation-
        only) plan returns the base without touching the stream.
        """
        sizing = self.plan.sizing
        if sizing.is_noop():
            return base
        return sizing.capacity_for(base, num_files, self._sizing_rng)

    def pick_contacts(
        self, candidates: Iterable[Address], seen: Set[Address]
    ) -> List[Address]:
        """Up to ``notify_budget`` addresses not yet notified.

        ``candidates`` must arrive in a deterministic order (a link cache's
        ``addresses()``: insertion order), and are listed before this
        returns; the sample draws only from the ``freshness:notify`` stream.
        """
        fresh = list(filterfalse(seen.__contains__, candidates))
        if len(fresh) <= self.plan.notify_budget:
            return fresh
        return self._notify_rng.sample(fresh, self.plan.notify_budget)

    # ------------------------------------------------------------------
    # Push invalidation
    # ------------------------------------------------------------------

    def notify_departure(self, victim: GuessPeer) -> None:
        """Hop 0 of a departure notice: the victim warns its contacts.

        The dying peer's own link cache approximates "who holds a
        pointer to me" (the introduction rule makes acquaintance roughly
        symmetric).  Up to ``notify_budget`` contacts get a
        departure-flagged ``CacheUpdate`` in the death instant — the
        victim is already unregistered, but UDP sends need no live
        source; being dead, it cannot ingest the acks' refresh pongs.
        """
        if self.plan.invalidates:
            subject = victim.address
            self._hop(subject, subject, self.plan.depth, {subject}, True, victim)

    def notify_overload(self, prober: GuessPeer, subject: Address, now: float) -> None:
        """``prober``'s ping to ``subject`` was just refused.

        If that tripped the prober's breaker, the prober spreads the
        overload verdict so other holders demote (or purge) their
        pointer before paying their own refusals.
        """
        plan = self.plan
        if not plan.invalidates:
            return
        if prober.breakers is not None and prober.breakers.state_of(subject) == OPEN:
            origin = prober.address
            self._sim.engine.schedule(
                now + NOTIFY_DELAY,
                self._handler,
                label="freshness",
                args=(origin, subject, plan.depth, {origin, subject}, False),
            )

    def _hop(
        self,
        carrier_address: Address,
        subject: Address,
        ttl: int,
        seen: Set[Address],
        departed: bool,
        victim: Optional[GuessPeer] = None,
    ) -> None:
        """Send a cache-update notice one interest-path hop.

        The carrier (a peer that held — and purged or demoted — the
        stale entry) warns up to ``notify_budget`` of its cached addresses.
        Only receivers that also held the entry (``ack.purged``) extend
        the path, so propagation follows interest and dies out where
        nobody cached the subject.  Each delivered ack piggybacks a
        pong the live carrier ingests — the purge doubles as a refresh.
        A carrier that died before its hop fired drops the notice;
        hop 0's carrier is the ``victim`` itself, dead by definition.
        """
        sim = self._sim
        now = sim.engine.now
        carrier = sim.store.get(carrier_address) if victim is None else victim
        if carrier is None or (victim is None and not carrier.is_alive(now)):
            return
        contacts = self.pick_contacts(carrier.link_cache.addresses(), seen)
        if not contacts:
            return
        message = CacheUpdate(carrier_address, subject, departed)
        probe = sim.transport.probe
        record_notice = sim.collector.record_freshness_notice
        for target_address in contacts:
            seen.add(target_address)
            outcome = probe(carrier_address, target_address, message, now)
            if outcome.status is ProbeStatus.DELIVERED:
                ack: CacheUpdateAck = outcome.response
                record_notice(now, delivered=True, purged=ack.purged)
                if victim is None and ack.pong.entries:
                    imported = carrier.import_pong_to_link_cache(ack.pong, now)
                    sim.collector.record_freshness_refresh(now, imported)
                if ack.purged and ttl > 1:
                    sim.engine.schedule(
                        now + NOTIFY_DELAY,
                        self._handler,
                        label="freshness",
                        args=(target_address, subject, ttl - 1, seen, departed),
                    )
            else:
                refused = outcome.status is ProbeStatus.REFUSED
                record_notice(now, delivered=False, refused=refused)
