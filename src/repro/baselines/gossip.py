"""Gossip (rumor-spreading) search baselines + the gossip-assisted relay.

Two related mechanisms live here, both driven exclusively by ``gossip:*``
RNG substreams (statically enforced by an RD007 contract in
``effect_contracts.toml``):

* :class:`GossipSearch` — a standalone push/pull/push-pull rumor-spreading
  query baseline over a :class:`~repro.baselines.gnutella.GnutellaOverlay`
  and :class:`~repro.baselines.extent.PopulationView`, the epidemic
  alternative the paper's related-work section (§7) flags but does not
  evaluate (Jaho et al.; Ferretti).  A query is a rumor: each round every
  active peer contacts ``fanout`` random neighbours, infection is
  deduplicated per query (a peer joins the infection tree at most once),
  and results are gossiped back to the originator along the infection
  edges.

* :class:`GossipPlan` / :class:`GossipRelay` — the **gossip-assisted
  GUESS** hybrid: instead of a harvested pong being consumed only by the
  probing peer, the harvest is epidemically disseminated to ``fanout``
  link-cache contacts per hop for ``ttl`` hops (the relay owns the hop
  handler; :mod:`repro.core.network_sim` only calls ``seed_rumor`` from
  its two harvest sites).  :meth:`GossipRelay.from_plan` returns
  ``None`` for disabled plans, mirroring the
  :meth:`repro.faults.FaultInjector.from_plan` convention, so a
  ``fanout=0`` plan keeps the exact pre-gossip code path and the golden
  trace digests stay bit-identical.

Message accounting
------------------

One gossip contact is one request/response *exchange* — the same message
unit as a GUESS probe (query + reply) and as
:meth:`~repro.baselines.gnutella.GnutellaOverlay.flood_query`'s
one-message-per-reached-peer cost.  Result reports flow back up the
infection tree as the (aggregated) response legs of the exchanges that
built it, so they cost no additional message units.  Total messages per
query are therefore bounded by ``n * fanout * rounds`` in every mode:
each peer initiates at most ``fanout`` exchanges per round, for at most
``rounds`` rounds (the TTL).

Adversary semantics (à la Consenzus)
------------------------------------

A *faulty reporter* is a peer with a real library that misreports result
counts: in ``"inflate"`` mode it adds ``report_offset`` to its true count
(so even non-owners claim results); in ``"suppress"`` mode it reports
zero, refuses to share the rumor, and drops result reports relayed
through it.  Honest satisfaction accounting is preserved throughout:
outcomes carry both the *claimed* result count (what the originator
perceives) and the *honest* one (true owners whose reports survived the
return path), and satisfaction is judged on the honest channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import GnutellaOverlay
from repro.core.entry import entry_values, entry_views
from repro.core.messages import GossipPush, Pong
from repro.errors import TopologyError, WorkloadError
from repro.network.address import Address
from repro.network.transport import ProbeStatus
from repro.sim.rng import RngRegistry
from repro.workload.content import ContentModel

if TYPE_CHECKING:  # annotation-only: network_sim imports this module
    from repro.core.network_sim import GuessSimulation
    from repro.core.peer import GuessPeer

#: Rumor-spreading variants: who initiates contacts each round.
GOSSIP_MODES: Tuple[str, ...] = ("push", "pull", "push-pull")

#: Faulty-reporter behaviours (see module docstring).
FAULTY_MODES: Tuple[str, ...] = ("inflate", "suppress")

#: Virtual seconds between a gossip-assisted rumor's hops (through the
#: engine, so the fault layer applies).
HOP_DELAY = 0.05


@dataclass(frozen=True)
class GossipParams:
    """Knobs of the standalone rumor-spreading baseline.

    Attributes:
        mode: ``"push"`` (infected peers spread), ``"pull"`` (susceptible
            peers poll), or ``"push-pull"`` (both).
        fanout: contacts each active peer initiates per round (``k``).
        rounds: rumor TTL in rounds; spreading stops after this many.
        desired_results: results needed for a query to be satisfied.
        faulty_fraction: fraction of peers that are faulty reporters.
        faulty_mode: ``"inflate"`` or ``"suppress"`` (module docstring).
        report_offset: count added by inflating reporters.
    """

    mode: str = "push"
    fanout: int = 2
    rounds: int = 4
    desired_results: int = 1
    faulty_fraction: float = 0.0
    faulty_mode: str = "inflate"
    report_offset: int = 3

    def __post_init__(self) -> None:
        if self.mode not in GOSSIP_MODES:
            raise WorkloadError(
                f"mode must be one of {GOSSIP_MODES}, got {self.mode!r}"
            )
        if self.fanout < 1:
            raise WorkloadError(f"fanout must be >= 1, got {self.fanout}")
        if self.rounds < 1:
            raise WorkloadError(f"rounds must be >= 1, got {self.rounds}")
        if self.desired_results < 1:
            raise WorkloadError(
                f"desired_results must be >= 1, got {self.desired_results}"
            )
        if not 0.0 <= self.faulty_fraction <= 1.0:
            raise WorkloadError(
                "faulty_fraction must be in [0, 1], "
                f"got {self.faulty_fraction}"
            )
        if self.faulty_mode not in FAULTY_MODES:
            raise WorkloadError(
                f"faulty_mode must be one of {FAULTY_MODES}, "
                f"got {self.faulty_mode!r}"
            )
        if self.report_offset < 1:
            raise WorkloadError(
                f"report_offset must be >= 1, got {self.report_offset}"
            )


@dataclass(frozen=True)
class GossipQueryOutcome:
    """One rumor query, fully accounted.

    Attributes:
        satisfied: honest satisfaction — true owners whose reports
            survived the return path met ``desired_results``.
        claimed_results: result count as perceived by the originator
            (inflated/deflated by faulty reporters).
        honest_results: true owners whose reports were delivered.
        messages: rumor exchanges initiated (module docstring for the
            unit); bounded by ``n * fanout * rounds``.
        duplicates: exchanges that reached an already-infected peer.
        infected: peers that joined the infection tree (source included).
        rounds_used: rounds before the rumor died or the TTL expired.
        reporters: infected true owners whose reports were delivered,
            in infection order — duplicate-free by construction.
        suppressed_reports: reports dropped by suppressing reporters or
            suppressing relays on the return path.
    """

    satisfied: bool
    claimed_results: int
    honest_results: int
    messages: int
    duplicates: int
    infected: int
    rounds_used: int
    reporters: Tuple[int, ...]
    suppressed_reports: int


@dataclass(frozen=True)
class GossipSummary:
    """Workload-level aggregate of :class:`GossipQueryOutcome` records."""

    queries: int
    satisfaction_rate: float
    claimed_results_per_query: float
    honest_results_per_query: float
    messages_per_query: float
    duplicates_per_query: float
    mean_infected: float
    max_load: int
    suppressed_reports: int


class GossipSearch:
    """Push/pull/push-pull rumor-spreading search over an overlay.

    Args:
        overlay: the neighbour structure (indices aligned with ``view``).
        view: live peers and their libraries.
        params: rumor knobs (:class:`GossipParams`).
        rng: the run's stream registry; this class only ever touches
            ``gossip:*`` streams (``gossip:spread`` for contact choices,
            ``gossip:roles`` for the faulty-reporter roster,
            ``gossip:workload`` for query sources).

    Per-peer message load accumulates across queries in :attr:`loads`
    (one unit per exchange a peer *receives*, matching the GUESS
    ``probes_received`` semantics).
    """

    def __init__(
        self,
        overlay: GnutellaOverlay,
        view: PopulationView,
        params: GossipParams,
        rng: RngRegistry,
    ) -> None:
        if view.size != overlay.n:
            raise TopologyError(
                f"view size {view.size} does not match overlay size {overlay.n}"
            )
        self.overlay = overlay
        self.view = view
        self.params = params
        self._spread_rng = rng.stream("gossip:spread")
        self._workload_rng = rng.stream("gossip:workload")
        # Sorted adjacency so sampling order never depends on set layout.
        self._neighbors: List[List[int]] = [
            sorted(overlay.neighbors(v)) for v in range(overlay.n)
        ]
        count = round(params.faulty_fraction * overlay.n)
        self.faulty: FrozenSet[int] = (
            frozenset(rng.stream("gossip:roles").sample(range(overlay.n), count))
            if count
            else frozenset()
        )
        self.loads: List[int] = [0] * overlay.n

    # ------------------------------------------------------------------
    # One query
    # ------------------------------------------------------------------

    def run_query(self, source: int, target: int) -> GossipQueryOutcome:
        """Spread one rumor from ``source`` asking for ``target``."""
        if not 0 <= source < self.overlay.n:
            raise TopologyError(f"source {source} out of range")
        params = self.params
        rng = self._spread_rng
        suppressors: FrozenSet[int] = (
            self.faulty if params.faulty_mode == "suppress" else frozenset()
        )
        # Infection tree: peer -> infection parent; order = infection order.
        parent: Dict[int, Optional[int]] = {source: None}
        order: List[int] = [source]
        messages = 0
        duplicates = 0
        rounds_used = 0
        n = self.overlay.n
        push = params.mode in ("push", "push-pull")
        pull = params.mode in ("pull", "push-pull")
        for _ in range(params.rounds):
            if len(parent) == n:
                break  # rumor saturated: nothing left to learn
            rounds_used += 1
            # Deterministic sender order: infection order for pushers,
            # index order for pullers.
            if push:
                for sender in list(order):
                    if sender in suppressors:
                        continue  # suppressors never share the rumor
                    for contact in self._pick_contacts(sender):
                        messages += 1
                        self.loads[contact] += 1
                        if contact in parent:
                            duplicates += 1
                        else:
                            parent[contact] = sender
                            order.append(contact)
            if pull:
                for sender in range(n):
                    if sender in parent:
                        continue  # infected (possibly just now): no poll
                    for contact in self._pick_contacts(sender):
                        messages += 1
                        self.loads[contact] += 1
                        if contact not in parent or contact in suppressors:
                            continue  # nothing to learn from this poll
                        if sender in parent:
                            duplicates += 1
                        else:
                            parent[sender] = contact
                            order.append(sender)
        return self._collect_results(
            source, target, parent, order, suppressors,
            messages, duplicates, rounds_used,
        )

    def _pick_contacts(self, sender: int) -> List[int]:
        """``fanout`` distinct neighbours of ``sender`` (all, if fewer)."""
        neighbors = self._neighbors[sender]
        if len(neighbors) <= self.params.fanout:
            return neighbors
        return self._spread_rng.sample(neighbors, self.params.fanout)

    def _collect_results(
        self,
        source: int,
        target: int,
        parent: Dict[int, Optional[int]],
        order: List[int],
        suppressors: FrozenSet[int],
        messages: int,
        duplicates: int,
        rounds_used: int,
    ) -> GossipQueryOutcome:
        """Gossip reports back along infection edges (response legs)."""
        params = self.params
        claimed = 0
        honest = 0
        suppressed = 0
        reporters: List[int] = []
        for node in order[1:]:  # the source does not report to itself
            owns = ContentModel.matches(self.view.libraries[node], target)
            true_count = 1 if owns else 0
            if node in self.faulty:
                if params.faulty_mode == "suppress":
                    if true_count:
                        suppressed += 1
                    continue
                node_claim = true_count + params.report_offset
            else:
                node_claim = true_count
            if node_claim == 0:
                continue  # nothing to report
            delivered = True
            hop = parent[node]
            while hop is not None and hop != source:
                if hop in suppressors:
                    delivered = False
                    suppressed += 1
                    break
                hop = parent[hop]
            if not delivered:
                continue
            claimed += node_claim
            honest += true_count
            if true_count:
                reporters.append(node)
        return GossipQueryOutcome(
            satisfied=honest >= params.desired_results,
            claimed_results=claimed,
            honest_results=honest,
            messages=messages,
            duplicates=duplicates,
            infected=len(parent),
            rounds_used=rounds_used,
            reporters=tuple(reporters),
            suppressed_reports=suppressed,
        )

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------

    def run_workload(self, queries: int) -> GossipSummary:
        """Run ``queries`` rumor queries from random sources.

        Sources and targets come from the ``gossip:workload`` stream, so
        two mechanisms built from the same registry seed see the same
        query workload.
        """
        if queries < 1:
            raise WorkloadError(f"queries must be >= 1, got {queries}")
        rng = self._workload_rng
        outcomes = [
            self.run_query(
                rng.randrange(self.overlay.n),
                self.view.content.draw_query_target(rng),
            )
            for _ in range(queries)
        ]
        return GossipSummary(
            queries=queries,
            satisfaction_rate=sum(o.satisfied for o in outcomes) / queries,
            claimed_results_per_query=(
                sum(o.claimed_results for o in outcomes) / queries
            ),
            honest_results_per_query=(
                sum(o.honest_results for o in outcomes) / queries
            ),
            messages_per_query=sum(o.messages for o in outcomes) / queries,
            duplicates_per_query=sum(o.duplicates for o in outcomes) / queries,
            mean_infected=sum(o.infected for o in outcomes) / queries,
            max_load=max(self.loads),
            suppressed_reports=sum(o.suppressed_reports for o in outcomes),
        )


# ----------------------------------------------------------------------
# Gossip-assisted GUESS
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GossipPlan:
    """Epidemic pong dissemination for GUESS (picklable, frozen).

    A harvested pong is normally consumed only by the probing peer; with
    an enabled plan the harvest is also pushed to ``fanout`` link-cache
    contacts per hop, for ``ttl`` hops, each hop :data:`HOP_DELAY`
    seconds after the previous one (through the engine, so the fault
    layer applies).

    ``fanout=0`` or ``ttl=0`` is the documented no-op: the simulation
    keeps the exact pre-gossip code path (:meth:`GossipRelay.from_plan`
    returns ``None``) and trace digests are bit-identical to a run with
    no plan at all.
    """

    fanout: int = 0
    ttl: int = 1

    def __post_init__(self) -> None:
        if self.fanout < 0:
            raise WorkloadError(f"fanout must be >= 0, got {self.fanout}")
        if self.ttl < 0:
            raise WorkloadError(f"ttl must be >= 0, got {self.ttl}")

    def is_noop(self) -> bool:
        """True when the plan cannot disseminate anything."""
        return self.fanout == 0 or self.ttl == 0


class GossipRelay:
    """Gossip-assisted GUESS dissemination: who is told, who forwards.

    Holds the plan, the single ``gossip:relay`` stream all hybrid-mode
    randomness comes from, and the simulation through which the hop
    handler reaches engine, transport, peer store and collector.  Build
    via :meth:`from_plan`, which returns ``None`` for disabled plans.
    """

    __slots__ = ("plan", "_rng", "_sim", "_handler")

    def __init__(
        self, plan: GossipPlan, rng: RngRegistry, sim: GuessSimulation
    ) -> None:
        self.plan = plan
        self._rng = rng.stream("gossip:relay")
        self._sim = sim
        # Bound once: every pending hop event holds this one object.
        self._handler = self._hop

    @classmethod
    def from_plan(
        cls, plan: Optional[GossipPlan], rng: RngRegistry, sim: GuessSimulation
    ) -> Optional[GossipRelay]:
        """The relay for ``plan``, or None if the plan can do nothing.

        Returning None (not an inert relay) is what makes the disabled
        plan contractually invisible: the ping path's pre-gossip branch
        is taken unchanged, with zero extra draws or scheduled events.
        """
        if plan is None or plan.is_noop():
            return None
        return cls(plan, rng, sim)

    def pick_targets(
        self, candidates: Iterable[Address], seen: Set[Address]
    ) -> List[Address]:
        """Up to ``fanout`` addresses from ``candidates`` not yet rumored.

        ``candidates`` must arrive in a deterministic order (a link cache's
        ``addresses()``: insertion order), and are listed before this
        returns; the sample draws only from the ``gossip:relay`` stream.
        """
        fresh = list(filterfalse(seen.__contains__, candidates))
        if len(fresh) <= self.plan.fanout:
            return fresh
        return self._rng.sample(fresh, self.plan.fanout)

    def seed_rumor(self, carrier: GuessPeer, pong: Pong, now: float) -> None:
        """Start one epidemic rumor from a freshly harvested pong.

        The probing peer becomes the rumor's origin/first carrier; the
        first hop fires :data:`HOP_DELAY` later so dissemination rides the
        engine (the fault layer and receiver rate limits both
        apply).  The per-rumor ``seen`` set is shared through
        event args — events fire deterministically, so the mutation
        order (hence every target choice) is reproducible.

        A pong shows the responder's own entries, valid for the exchange
        only; the rumor outlives this event, so it holds their values
        taken now (:func:`~repro.core.entry.entry_values`), not clones.
        """
        sim = self._sim
        sim.collector.record_gossip_rumor(now)
        origin = carrier.address
        seen = {origin, pong.sender}
        values = entry_values(pong.entries)
        sim.engine.schedule(
            now + HOP_DELAY,
            self._handler,
            label="gossip",
            args=(origin, origin, values, self.plan.ttl, seen),
        )

    def _hop(
        self,
        carrier_address: Address,
        origin: Address,
        values: tuple,
        ttl: int,
        seen: Set[Address],
    ) -> None:
        """Push the rumor from one carrier to up to ``fanout`` fresh contacts.

        The pushes show ``EntryView`` tuples of the rumor's values, and
        delivered ones import them at the receiver (attributed to the
        rumor's origin) and — while ``ttl`` lasts — make the receiver the
        next hop's carrier.  Malicious peers and suppress-mode faulty
        reporters accept rumors but never relay them (counted).  A carrier
        that died before its hop fired drops the rumor like a lost packet.
        """
        sim = self._sim
        now = sim.engine.now
        store = sim.store
        carrier = store.get(carrier_address)
        if carrier is None or not carrier.is_alive(now):
            return
        targets = self.pick_targets(carrier.link_cache.addresses(), seen)
        if not targets:
            return
        message = GossipPush(carrier_address, origin, entry_views(values), ttl)
        probe = sim.transport.probe
        record_push = sim.collector.record_gossip_push
        for target_address in targets:
            seen.add(target_address)
            outcome = probe(carrier_address, target_address, message, now)
            if outcome.status is ProbeStatus.DELIVERED:
                record_push(now, delivered=True, imported=outcome.response.imported)
                if ttl <= 1:
                    continue
                target = store.get(target_address)
                if target is None:
                    continue
                if target.malicious or target.suppresses_gossip:
                    sim.collector.record_gossip_suppressed_forward(now)
                    continue
                sim.engine.schedule(
                    now + HOP_DELAY,
                    self._handler,
                    label="gossip",
                    args=(target_address, origin, values, ttl - 1, seen),
                )
            else:
                refused = outcome.status is ProbeStatus.REFUSED
                record_push(now, delivered=False, refused=refused)
