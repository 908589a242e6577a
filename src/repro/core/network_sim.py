"""The GUESS network simulation (paper Section 5.1).

:class:`GuessSimulation` wires every substrate together and drives the
lifecycle the paper describes:

* ``NetworkSize`` peers are alive at every instant: when a peer's drawn
  lifetime expires it silently departs and a fresh peer is born in the
  same instant, seeded by the *random friend* policy (it copies the link
  cache of one live peer it knows);
* at time 0 every link cache is seeded with ``CacheSeedSize ≈
  NetworkSize/100`` live peers;
* every peer pings one link-cache entry per ``PingInterval`` (evicting
  corpses, importing pong entries);
* good peers issue bursty queries (1-5 per burst, Poisson bursts) and
  execute them with the serial-probe search loop;
* a configurable fraction of peers is malicious and poisons pongs.

The simulation holds one shared :class:`PolicySet` (policies are
stateless), one transport, one attack directory, and one metrics
collector; the report combines query outcomes, per-peer loads, and
periodic cache-health samples.

This module runs that lifecycle only.  A layer that sends its own probes
(gossip dissemination, push invalidation) keeps its handlers in its own
package: its object is handed the simulation once, at construction, and
each lifecycle site here makes one guarded, direct call into it
(``_on_death``, both live branches of ``_do_ping``, ``_run_query``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.gossip import GossipPlan, GossipRelay
from repro.core.entry import CacheEntry
from repro.core.malicious import AttackDirectory, FaultyReporter, MaliciousPeer
from repro.core.params import (
    ProtocolParams,
    SystemParams,
    default_cache_seed_size,
)
from repro.core.peer import GuessPeer, ProbeTally
from repro.core.peer_store import PeerStore
from repro.core.policies import PolicySet
from repro.core.search import QueryResult, execute_query
from repro.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.freshness.mediator import FreshnessMediator
from repro.freshness.plan import FreshnessPlan
from repro.metrics.collectors import (
    CacheHealthSample,
    MetricsCollector,
    SimulationReport,
)
from repro.network.address import Address, AddressAllocator
from repro.network.overlay import OverlaySnapshot
from repro.network.transport import ProbeStatus, Transport
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.scenarios import ChurnStorm, ScenarioDriver, ScenarioPlan
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RngRegistry, randbelow
from repro.workload.content import EMPTY_LIBRARY, ContentModel
from repro.workload.files import FileCountModel
from repro.workload.lifetimes import LifetimeModel
from repro.workload.queries import QueryBurstProcess

#: Unregistered addresses malicious peers can hand out before any real
#: peer has died (they behave exactly like dead peers: probes time out).
GHOST_ADDRESS_COUNT = 64

#: Default spacing of cache-health samples (seconds).
DEFAULT_HEALTH_SAMPLE_INTERVAL = 60.0


class GuessSimulation:
    """A complete, runnable GUESS network.

    Args:
        system: Table 1 parameters.
        protocol: Table 2 parameters (``MR*``/``LR*`` normalise
            automatically).
        seed: master seed; same seed + params = bit-identical run.
        warmup: measurement warmup in seconds (metrics before this time
            are discarded; protocol behaviour is unaffected).
        content: content model override (defaults calibrate the ~6%
            unsatisfiable floor at NetworkSize 1000).
        lifetime_model: lifetime model override (defaults to the
            synthetic Saroiu-like trace scaled by
            ``system.lifespan_multiplier``).
        file_model: shared-file-count model override.
        keep_queries: retain every individual query result in the report.
        health_sample_interval: spacing of cache-health samples in
            seconds, > 0; ``None`` disables sampling (saves time in
            ping-only sweeps).
        faults: optional :class:`~repro.faults.plan.FaultPlan` making
            the wire lose probes.  ``None`` or a zero plan builds no
            injector and reproduces the fault-free trace digest
            bit-for-bit.  The loss coin draws only from the
            ``fault:loss`` substream, so protocol streams are never
            perturbed.
        trace_hash: enable the engine's determinism sanitizer — every
            fired event is folded into a digest exposed as
            :attr:`trace_digest`, so two same-``(seed, params)`` runs can
            be asserted bit-for-bit identical.
        scenarios: optional
            :class:`~repro.resilience.scenarios.ScenarioPlan` of
            correlated trouble — churn storms (mass departures) and
            flash crowds (query-arrival surges).  ``None`` or an all-noop
            plan builds no driver and reproduces the scenario-free trace
            digest bit-for-bit; an active plan draws only from the
            ``scenario:*`` substream.
        resilience: optional
            :class:`~repro.resilience.policy.ResiliencePolicy` arming
            per-peer graceful degradation (link-cache circuit breakers,
            retry-token budgets, graded load shedding).  ``None`` or an
            all-off policy is normalized away and keeps every pre-existing
            code path.
        satisfaction_window: width in seconds of the collector's
            satisfaction-tracking windows (feeds the time-to-recovery
            metric); ``None`` disables the channel.
        gossip: optional :class:`~repro.baselines.gossip.GossipPlan`
            arming gossip-assisted GUESS — every successful maintenance
            ping's pong harvest is additionally pushed epidemically to
            ``fanout`` link-cache contacts per hop for ``ttl`` hops.
            ``None`` or a no-op plan (``fanout=0`` or ``ttl=0``) builds
            no relay and reproduces the gossip-free trace digest
            bit-for-bit; an armed relay draws only from the
            ``gossip:*`` substreams.
        freshness: optional :class:`~repro.freshness.plan.FreshnessPlan`
            arming controlled cache-update propagation — departing (and
            breaker-tripped overloaded) peers push ``CacheUpdate``
            notices along interest paths so stale pointers are purged or
            demoted before they cost a dead probe — and heterogeneous,
            capacity-proportional per-peer link-cache sizing.  ``None``
            or a no-op plan builds no mediator and reproduces the
            freshness-free trace digest bit-for-bit; an armed mediator
            draws only from the ``freshness:*`` substreams.

    Example::

        sim = GuessSimulation(SystemParams(), ProtocolParams(), seed=7)
        sim.run(1800.0)
        report = sim.report()
        print(report.probes_per_query, report.unsatisfied_rate)
    """

    def __init__(
        self,
        system: SystemParams,
        protocol: ProtocolParams,
        *,
        seed: int = 0,
        warmup: float = 0.0,
        content: Optional[ContentModel] = None,
        lifetime_model: Optional[LifetimeModel] = None,
        file_model: Optional[FileCountModel] = None,
        keep_queries: bool = False,
        health_sample_interval: Optional[float] = DEFAULT_HEALTH_SAMPLE_INTERVAL,
        faults: Optional[FaultPlan] = None,
        trace_hash: bool = False,
        scenarios: Optional[ScenarioPlan] = None,
        resilience: Optional[ResiliencePolicy] = None,
        satisfaction_window: Optional[float] = None,
        gossip: Optional[GossipPlan] = None,
        freshness: Optional[FreshnessPlan] = None,
    ) -> None:
        if health_sample_interval is not None and not health_sample_interval > 0:
            raise ConfigError(
                "health_sample_interval must be > 0 (or None to disable "
                f"sampling), got {health_sample_interval}"
            )
        self.system = system
        self.protocol = protocol.normalized()
        self.engine = Simulator(trace_hash=trace_hash)
        self.rng = RngRegistry(seed)
        self.faults = FaultInjector.from_plan(faults, self.rng)
        # Both follow the from_plan -> None invisibility contract: a
        # missing/no-op plan leaves the hot paths branch-free.
        self.scenario = ScenarioDriver.from_plan(scenarios, self.rng)
        self.resilience = ResiliencePolicy.normalize(resilience)
        # None for a missing/no-op plan (fanout=0 or ttl=0): the ping
        # success path then carries no gossip branch at all, and the
        # gossip:* substreams are never instantiated.
        self.gossip = GossipRelay.from_plan(gossip, self.rng, self)
        # None for a missing/no-op plan: uniform cache sizes, no
        # departure notices, and the freshness:* substreams are never
        # instantiated (the same from_plan -> None contract).
        self.freshness = FreshnessMediator.from_plan(freshness, self.rng, self)
        self.transport = Transport(
            timeout=self.protocol.probe_spacing, faults=self.faults
        )
        self.collector = MetricsCollector(
            warmup=warmup,
            keep_queries=keep_queries,
            satisfaction_window=satisfaction_window,
        )
        self.content = content or ContentModel()
        self.lifetimes = lifetime_model or LifetimeModel(
            multiplier=system.lifespan_multiplier
        )
        self.files = file_model or FileCountModel()
        self.policies = PolicySet.from_protocol(self.protocol)
        self.bursts = QueryBurstProcess(query_rate=system.query_rate)
        self.cache_seed_size = min(
            default_cache_seed_size(system.network_size),
            self.protocol.cache_size,
        )
        self._allocator = AddressAllocator()
        ghosts = self._allocator.allocate_many(GHOST_ADDRESS_COUNT)
        # Struct-of-arrays peer registry: the live-peer object map, the
        # ascending live rosters, plus scalar columns (alive/role flags)
        # indexed by dense address — the hot membership checks below are
        # bytearray loads, not dict/set hashing.
        self._store = PeerStore(reserve=GHOST_ADDRESS_COUNT)
        self.directory = AttackDirectory(self._store, ghost_addresses=ghosts)
        self._health_interval = health_sample_interval
        self._reported = False
        self._bootstrap()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    @property
    def trace_digest(self) -> Optional[str]:
        """Executed-event digest (None unless ``trace_hash=True``)."""
        return self.engine.trace_digest

    @property
    def store(self) -> PeerStore:
        """The struct-of-arrays peer registry."""
        return self._store

    @property
    def live_peers(self) -> List[GuessPeer]:
        """All currently live peers."""
        return self._store.live_peers()

    @property
    def live_good_peers(self) -> List[GuessPeer]:
        """Currently live protocol-following peers."""
        return [p for p in self._store.values() if not p.malicious]

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Create the initial population and seed every link cache."""
        n = self.system.network_size
        bad_count = round(self.system.bad_peer_fraction * n)
        faulty_count = round(self.system.faulty_reporter_fraction * n)
        # Three-valued roles: 2 = malicious, 1 = faulty reporter, 0 = good.
        # The shuffle's draw count depends only on the list length, so a
        # faulty_count of zero leaves the "churn" stream — and the trace
        # digest — exactly as the old two-valued spelling did.
        roles = (
            [2] * bad_count
            + [1] * faulty_count
            + [0] * (n - bad_count - faulty_count)
        )
        self.rng.stream("churn").shuffle(roles)
        peers = [
            self._spawn_peer(0.0, malicious=role == 2, faulty=role == 1)
            for role in roles
        ]

        # Seed each cache with CacheSeedSize random living peers.
        topology_rng = self.rng.stream("topology")
        policy_rng = self.rng.stream("policies")
        replacement = self.policies.replacement
        addresses = [p.address for p in peers]
        num_files = {p.address: p.num_files for p in peers}
        k = min(self.cache_seed_size, n - 1)
        for peer in peers:
            own = peer.address
            picked: set[Address] = set()
            while len(picked) < k:
                candidate = addresses[randbelow(topology_rng, n)]
                if candidate != own:
                    picked.add(candidate)
            # Sorted so cache contents (hence ping-target order) never
            # depend on set iteration order.
            peer.link_cache.admit(
                [
                    CacheEntry(address=address, num_files=num_files[address])
                    for address in sorted(picked)
                ],
                replacement, 0.0, policy_rng,
            )

        if self._health_interval is not None:
            self.engine.schedule(
                self._health_interval,
                self._sample_health,
                priority=EventPriority.METRICS,
                label="health-sample",
            )

        if self.scenario is not None:
            for storm in self.scenario.storms:
                self.engine.schedule(
                    storm.start,
                    self._churn_storm,
                    priority=EventPriority.DEATH,
                    label="storm",
                    args=(storm,),
                )

    # ------------------------------------------------------------------
    # Peer lifecycle
    # ------------------------------------------------------------------

    def _spawn_peer(
        self,
        now: float,
        malicious: bool,
        faulty: bool = False,
        friend: Optional[GuessPeer] = None,
        is_rebirth: bool = False,
    ) -> GuessPeer:
        """Create, register, and schedule one peer.

        Args:
            now: birth time.
            malicious: whether the newborn is a cache-poisoning attacker.
            faulty: whether the newborn is a faulty reporter (mutually
                exclusive with ``malicious``); it draws exactly like a
                good peer — real library, real lifetime — so arming the
                role changes no stream's draw count.
            friend: live peer whose cache the newborn copies (random
                friend seeding); None for the initial population, which
                is seeded separately.
            is_rebirth: True for churn replacements; only these count in
                the births metric (the bootstrap population is not churn).
        """
        address = self._allocator.allocate()
        num_files = self.files.sample(self.rng.stream("files"))
        library = (
            EMPTY_LIBRARY
            if malicious
            else self.content.build_library(self.rng.stream("content"), num_files)
        )
        lifetime = self.lifetimes.sample(self.rng.stream("lifetimes"))
        cache_capacity = (
            self.freshness.cache_capacity(self.protocol.cache_size, num_files)
            if self.freshness is not None
            else None
        )
        common = dict(
            num_files=num_files,
            library=library,
            birth_time=now,
            death_time=now + lifetime,
            protocol=self.protocol,
            policies=self.policies,
            max_probes_per_second=self.system.max_probes_per_second,
            policy_rng=self.rng.stream("policies"),
            intro_rng=self.rng.stream("intro"),
            resilience=self.resilience,
            cache_capacity=cache_capacity,
        )
        if malicious:
            peer = MaliciousPeer(
                address,
                behavior=self.system.bad_pong_behavior,
                directory=self.directory,
                attack_rng=self.rng.stream("malicious"),
                **common,
            )
        elif faulty:
            peer = FaultyReporter(
                address,
                report_mode=self.system.faulty_reporter_mode,
                report_offset=self.system.faulty_report_offset,
                **common,
            )
        else:
            peer = GuessPeer(address, **common)

        self._store.add(peer)
        self.transport.register(address, peer)
        if is_rebirth:
            self.collector.record_birth(now)

        if friend is not None:
            self._seed_from_friend(peer, friend, now)

        self.engine.schedule(
            peer.death_time,
            self._on_death,
            priority=EventPriority.DEATH,
            label="death",
            args=(peer,),
        )
        # De-synchronise ping phases so capacity windows see smooth load.
        phase = self.rng.stream("phases").random() * self.protocol.ping_interval
        self.engine.schedule(
            now + phase,
            self._ping_cycle,
            priority=EventPriority.PROTOCOL,
            label="ping",
            args=(peer,),
        )
        if not malicious and self.system.query_rate > 0:
            delay = self.bursts.next_burst_delay(self.rng.stream("queries"))
            if self.scenario is not None:
                delay = self.scenario.warp_delay(now, delay)
            self.engine.schedule(
                now + delay,
                self._query_burst,
                priority=EventPriority.QUERY,
                label="burst",
                args=(peer,),
            )
        self._peer_spawned(peer)
        return peer

    def _peer_spawned(self, peer: GuessPeer) -> None:
        """Extension seam, called last for every newborn (bootstrap too).

        A no-op here; extensions with per-peer state override it (or
        wrap it on a live instance) instead of re-declaring
        :meth:`_spawn_peer`'s signature.
        """

    def _seed_from_friend(
        self, newborn: GuessPeer, friend: GuessPeer, now: float
    ) -> None:
        """Random-friend seeding: copy the friend's cache, plus the friend."""
        policy_rng = self.rng.stream("policies")
        reset = self.policies.reset_num_results
        friend_entry = CacheEntry(
            address=friend.address,
            ts=now,
            num_files=friend.num_files,
            num_res=0,
            born=now,
        )
        newborn.link_cache.insert(
            friend_entry, self.policies.replacement, policy_rng
        )
        newborn.link_cache.admit(
            friend.link_cache.entries(), self.policies.replacement, now,
            policy_rng, shown=True, reset_num_results=reset,
        )

    def _on_death(self, peer: GuessPeer) -> None:
        """Depart silently; a replacement is born in the same instant."""
        now = self.engine.now
        address = peer.address
        if self._store.remove(address) is None:  # already handled (defensive)
            return
        self.transport.unregister(address, time=now)
        self.collector.record_death(now)
        self.collector.harvest_peer(
            peer.address,
            peer.probes_received,
            peer.probes_refused,
            peer.pings_shed,
        )
        if self.freshness is not None:
            self.freshness.notify_departure(peer)

        # Rebirth keeps the live population at NetworkSize.  The newborn's
        # role is a coin flip, keeping PercentBadPeers (and
        # PercentFaultyReporters) stationary.  One roll decides both
        # roles so arming faulty reporters never adds a "churn" draw —
        # the digest-stability contract the bootstrap shuffle also keeps.
        roll = self.rng.stream("churn").random()
        bad_fraction = self.system.bad_peer_fraction
        malicious = roll < bad_fraction
        faulty = (not malicious) and roll < (
            bad_fraction + self.system.faulty_reporter_fraction
        )
        friend = self._pick_friend()
        self.engine.schedule(
            now,
            self._spawn_peer,
            priority=EventPriority.BIRTH,
            label="birth",
            args=(now, malicious, faulty, friend, True),
        )

    def _churn_storm(self, storm: ChurnStorm) -> None:
        """Onset of one churn storm: pick victims, schedule departures.

        Victims are sampled from the live roster (whose order is the
        store's deterministic insertion order) on the ``scenario:churn``
        substream and each gets a forced-death event at a uniform offset
        inside the storm window.  Only scheduled for enabled storms, so
        a noop plan never reaches this path.
        """
        now = self.engine.now
        live = self._store.live_peers()
        assert self.scenario is not None  # storms only exist with a driver
        for index, offset in self.scenario.draw_departures(storm, len(live)):
            self.engine.schedule(
                now + offset,
                self._storm_death,
                priority=EventPriority.DEATH,
                label="storm-death",
                args=(live[index],),
            )

    def _storm_death(self, peer: GuessPeer) -> None:
        """Force one storm victim to depart now.

        The victim goes through the ordinary death path (harvest, same-
        instant rebirth), so the population invariant holds — the storm's
        damage is the *staleness* it leaves in every cache that pointed
        at the victims.  A victim that already died naturally before its
        storm offset is skipped; its pre-scheduled natural-death event
        later no-ops through ``_on_death``'s defensive store check.
        """
        now = self.engine.now
        if not peer.is_alive(now):
            return
        peer.death_time = now
        self._on_death(peer)

    def _pick_friend(self) -> Optional[GuessPeer]:
        """One uniformly random live peer (the newborn's "friend").

        Birth order is ascending address order, so the k-th of the
        store's ascending live addresses is ``list(peers.keys())[k]``
        without the O(n) list rebuild — same RNG draw, same friend,
        same digest.
        """
        count = len(self._store)
        if not count:
            return None
        k = randbelow(self.rng.stream("topology"), count)
        return self._store.kth_live(k)

    # ------------------------------------------------------------------
    # Maintenance pings
    # ------------------------------------------------------------------

    def _ping_cycle(self, peer: GuessPeer) -> None:
        """Ping one entry, then reschedule (stops when the peer is dead)."""
        now = self.engine.now
        if not peer.is_alive(now):
            return
        self._do_ping(peer, now)
        self.engine.schedule_after(
            self.protocol.ping_interval,
            self._ping_cycle,
            priority=EventPriority.PROTOCOL,
            label="ping",
            args=(peer,),
        )

    def _do_ping(self, peer: GuessPeer, now: float) -> None:
        """One maintenance ping per Section 2.2 (see :meth:`GuessPeer.probe_entry`)."""
        entry = peer.choose_ping_target()
        if entry is None:
            return
        tally = ProbeTally()
        if peer.breakers is not None and not peer.breakers.allow(entry.address, now):
            # Open breaker: spare the overloaded target this ping and
            # keep the entry cached for the half-open trial later.
            tally.suppressed_probes += 1
            self.collector.record_ping(tally, now)
            return
        outcome, _ = peer.probe_entry(
            entry, peer.ping_message(), self.transport, now, tally
        )
        self.collector.record_ping(tally, now)
        status = outcome.status
        if status is ProbeStatus.DELIVERED:
            peer.link_cache.touch(entry.address, now)
            peer.import_pong_to_link_cache(outcome.response, now)
            if self.gossip is not None and outcome.response.entries:
                self.gossip.seed_rumor(peer, outcome.response, now)
        elif status is ProbeStatus.REFUSED and self.freshness is not None:
            self.freshness.notify_overload(peer, entry.address, now)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _query_burst(self, peer: GuessPeer) -> None:
        """Execute one burst of queries, then schedule the next burst."""
        now = self.engine.now
        if not peer.is_alive(now):
            return
        queries_rng = self.rng.stream("queries")
        size = self.bursts.burst_size(queries_rng)
        cursor = now
        for _ in range(size):
            target = self.content.draw_query_target(queries_rng)
            cursor += self._run_query(peer, target, cursor).duration
        delay = self.bursts.next_burst_delay(queries_rng)
        if self.scenario is not None:
            delay = self.scenario.warp_delay(now, delay)
        if delay != float("inf"):
            self.engine.schedule_after(
                delay,
                self._query_burst,
                priority=EventPriority.QUERY,
                label="burst",
                args=(peer,),
            )

    def _run_query(self, peer: GuessPeer, target: int, now: float) -> QueryResult:
        """Execute and book one query of a burst.

        The second subclass seam (after :meth:`_peer_spawned`): an
        extension whose peers query differently overrides this, and the
        burst loop — cursor advance, flash-crowd warp — stays the one above.
        """
        # With gossip armed, delivered query-reply pongs seed rumors
        # too (not just ping harvests); None keeps the query loop
        # append-free so the gossip-off digest is untouched.
        harvests: Optional[List] = [] if self.gossip is not None else None
        result = execute_query(
            peer,
            target,
            self.transport,
            now,
            rng=self.rng.stream("policies"),
            desired_results=self.system.num_desired_results,
            harvests=harvests,
        )
        self.collector.record_query(result, now)
        if harvests:
            for pong in harvests:
                self.gossip.seed_rumor(peer, pong, now)
        return result

    # ------------------------------------------------------------------
    # Health sampling
    # ------------------------------------------------------------------

    def _sample_health(self) -> None:
        """Average link-cache health over live good peers, then reschedule.

        Accumulates running sums in iteration order (no per-peer entry
        list copies, no intermediate per-peer lists), which keeps every
        float operation — and hence the sampled values — bit-identical to
        the old list-then-``sum`` spelling.
        """
        now = self.engine.now
        # SoA columns: liveness/role per cache entry is a bytearray load
        # on the dense address, not a dict/set hash probe.  A live
        # address is in ``live_malicious`` exactly when its (immutable)
        # role column says malicious, so the counts — and the digest —
        # are unchanged.
        alive = self._store.alive_column
        mal = self._store.malicious_column
        fraction_sum = 0.0
        fraction_n = 0
        absolute_sum = 0.0
        good_sum = 0.0
        fill_sum = 0.0
        sampled = 0
        for peer in self._store.values():
            if peer.malicious:
                continue
            sampled += 1
            cache = peer.link_cache
            size = len(cache)
            if not size:
                continue  # contributes 0.0 to every sum but fraction's n
            live_count = 0
            good_count = 0
            for entry in cache.iter_entries():
                address = entry.address
                if alive[address]:
                    live_count += 1
                    if not mal[address]:
                        good_count += 1
            fill_sum += float(size)
            fraction_sum += live_count / size
            fraction_n += 1
            absolute_sum += float(live_count)
            good_sum += float(good_count)
        sample = CacheHealthSample(
            time=now,
            fraction_live=fraction_sum / fraction_n if fraction_n else 0.0,
            absolute_live=absolute_sum / sampled if sampled else 0.0,
            good_entries=good_sum / sampled if sampled else 0.0,
            cache_fill=fill_sum / sampled if sampled else 0.0,
        )
        self.collector.record_health_sample(sample)
        if self._health_interval is not None:
            self.engine.schedule_after(
                self._health_interval,
                self._sample_health,
                priority=EventPriority.METRICS,
                label="health-sample",
            )

    # ------------------------------------------------------------------
    # Driving and reporting
    # ------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        # Pings reschedule forever, so an infinite run never drains.
        if not 0 <= duration < float("inf"):
            raise SimulationError(
                f"duration must be finite and >= 0, got {duration}"
            )
        self.engine.run_until(self.engine.now + duration)

    def report(self) -> SimulationReport:
        """Freeze and return the run's metrics.

        Harvests the lifetime counters of still-live peers; callable once
        per simulation (a second call would double-harvest).
        """
        if self._reported:
            raise SimulationError("report() may only be called once per run")
        self._reported = True
        for peer in self._store.values():
            self.collector.harvest_peer(
                peer.address,
                peer.probes_received,
                peer.probes_refused,
                peer.pings_shed,
            )
        self.collector.record_transport(
            probes_sent=self.transport.probes_sent,
            timeouts=self.transport.timeouts,
            refusals=self.transport.refusals,
            spurious_timeouts=self.transport.spurious_timeouts,
        )
        return self.collector.build_report(trace_digest=self.trace_digest)

    def snapshot_overlay(self) -> OverlaySnapshot:
        """The conceptual overlay among currently live peers."""
        live = set(self._store.addresses())
        contents = {
            peer.address: list(peer.link_cache.addresses())
            for peer in self._store.values()
        }
        return OverlaySnapshot.from_caches(live, contents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuessSimulation(n={self.system.network_size}, "
            f"t={self.engine.now:.0f}s, live={len(self._store)})"
        )
