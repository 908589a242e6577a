"""Run-time metric accumulation and the end-of-run report.

:class:`MetricsCollector` is fed by the simulation as events happen:

* one :meth:`record_query` call per executed query (after warmup);
* ping accounting from the maintenance cycle;
* per-peer lifetime loads, harvested when a peer dies and from survivors
  at report time;
* periodic :class:`CacheHealthSample` rows — fraction of live entries,
  absolute live entries, and "good" (live and non-malicious) entries per
  good peer — the raw material for Table 3 and Figures 18/21.

:class:`SimulationReport` is the frozen summary the experiment layer
consumes; every paper metric is a property with the paper's name in its
docstring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, field, fields
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # annotation-only: a runtime import would close the
    # baselines → metrics → core → metrics cycle.
    from repro.core.search import QueryResult

from repro.errors import ConfigError
from repro.metrics.load import LoadDistribution
from repro.metrics.summary import mean, ratio
from repro.network.address import Address
from repro.observe.registry import MetricsRegistry


@dataclass(frozen=True, slots=True)
class CacheHealthSample:
    """One periodic snapshot of average link-cache health (good peers).

    Attributes:
        time: sample timestamp.
        fraction_live: mean fraction of cache entries pointing to live
            peers (Table 3, column "Fraction Live").
        absolute_live: mean count of live entries (Table 3, "Absolute
            Live").
        good_entries: mean count of live AND non-malicious entries
            (Figures 18/21, "Average # Good Cache Entries").
        cache_fill: mean number of entries held (caches run below
            capacity because dead entries are evicted).
    """

    time: float
    fraction_live: float
    absolute_live: float
    good_entries: float
    cache_fill: float


#: The registry counters, named by the :class:`SimulationReport` field
#: each one feeds; the instrument is registered as ``"sim." + field`` and
#: :meth:`MetricsCollector.build_report` copies every one across by name.
COUNTER_FIELDS = (
    "pings_sent",
    "dead_pings",
    "spurious_dead_pings",
    "ping_retries",
    "ping_retry_recoveries",
    "wrongful_ping_evictions",
    "births",
    "deaths",
    "queries",
    "dead_ping_evictions",
    "refusal_ping_evictions",
    "suppressed_pings",
    "ping_retries_denied",
    # The gossip-assisted relay channel.
    "gossip_rumors",
    "gossip_pushes",
    "gossip_delivered",
    "gossip_refused",
    "gossip_imports",
    "gossip_suppressed_forwards",
    # The freshness layer (stale split + push invalidation).
    "stale_dead_pings",
    "freshness_notices",
    "freshness_notices_delivered",
    "freshness_notices_refused",
    "freshness_purges",
    "freshness_refresh_imports",
)


@dataclass(slots=True)
class _QueryAggregate:
    """Streaming sums over recorded queries (memory-light default path).

    Every field is the :class:`SimulationReport` field it becomes.
    """

    satisfied_queries: int = 0
    total_probes: int = 0
    good_probes: int = 0
    dead_probes: int = 0
    stale_dead_query_probes: int = 0
    refused_probes: int = 0
    total_results: int = 0
    spurious_timeout_probes: int = 0
    probe_retries: int = 0
    retry_recovered_probes: int = 0
    wrongful_query_evictions: int = 0
    dead_query_evictions: int = 0
    refusal_query_evictions: int = 0
    suppressed_query_probes: int = 0
    query_retries_denied: int = 0
    total_honest_results: int = 0
    honest_satisfied_queries: int = 0


class MetricsCollector:
    """Accumulates metrics during a simulation run.

    Args:
        warmup: queries and pings before this time are ignored, letting
            caches reach steady state before measurement (the load and
            cache-health channels also honour it).
        keep_queries: retain every :class:`QueryResult` (needed only by
            analyses that want full distributions; the aggregate path is
            default to keep long runs light).
        registry: optional shared
            :class:`~repro.observe.registry.MetricsRegistry` holding the
            collector's counters (a private one is built by default).
            Sharing a windowed registry yields per-window snapshots of
            ping/churn activity.
        satisfaction_window: width in virtual seconds of the dedicated
            satisfaction-tracking windows (the raw material for the
            time-to-recovery metric in
            :mod:`repro.resilience.recovery`); ``None`` (the default)
            disables the channel and the report's
            ``satisfaction_windows`` stays empty.  The channel uses a
            *private* windowed registry so it composes independently of
            the shared observability ``registry``.
    """

    #: Instruments of the private satisfaction-window channel.
    METRIC_WINDOW_QUERIES = "sim.window_queries"
    METRIC_WINDOW_SATISFIED = "sim.window_satisfied"

    def __init__(
        self,
        warmup: float = 0.0,
        keep_queries: bool = False,
        registry: Optional[MetricsRegistry] = None,
        satisfaction_window: Optional[float] = None,
    ) -> None:
        if warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {warmup}")
        self.warmup = float(warmup)
        self.keep_queries = bool(keep_queries)
        self._agg = _QueryAggregate()
        self._response_time_sum = 0.0
        self._response_times = 0
        self._queries: List[QueryResult] = []
        self._loads: Dict[Address, int] = {}
        self._refusals: Dict[Address, int] = {}
        self._health: List[CacheHealthSample] = []
        self._registry = registry if registry is not None else MetricsRegistry()
        self._observed = registry is not None
        self._c = SimpleNamespace(**{
            name: self._registry.counter("sim." + name)
            for name in COUNTER_FIELDS
        })
        # The satisfaction-window channel: a private windowed registry
        # so the report can expose per-window (queries, satisfied) rows
        # whether or not a shared observability registry is attached.
        self._sat_registry = (
            MetricsRegistry(window=satisfaction_window)
            if satisfaction_window is not None
            else None
        )
        self._sat_queries = (
            self._sat_registry.counter(self.METRIC_WINDOW_QUERIES)
            if self._sat_registry is not None
            else None
        )
        self._sat_satisfied = (
            self._sat_registry.counter(self.METRIC_WINDOW_SATISFIED)
            if self._sat_registry is not None
            else None
        )
        self._last_query_time = 0.0
        self.pings_shed_total = 0
        # Transport-lifetime counters, recorded once at report time (not
        # warmup-filtered: they describe the wire, not the measurement
        # window).
        self.transport_probes_sent = 0
        self.transport_timeouts = 0
        self.transport_refusals = 0
        self.transport_spurious_timeouts = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def _measured(self, time: float) -> bool:
        """False during warmup; otherwise advance a shared registry's windows."""
        if time < self.warmup:
            return False
        if self._observed:
            self._registry.advance(time)
        return True

    def record_query(self, result: QueryResult, time: float) -> None:
        """Record one query outcome (ignored during warmup)."""
        if not self._measured(time):
            return
        if self._sat_registry is not None:
            self._sat_registry.advance(time)
            self._sat_queries.inc()
            if result.satisfied:
                self._sat_satisfied.inc()
            self._last_query_time = time
        self._c.queries.inc()
        agg = self._agg
        agg.satisfied_queries += 1 if result.satisfied else 0
        agg.total_probes += result.probes
        agg.good_probes += result.good_probes
        agg.dead_probes += result.dead_probes
        agg.stale_dead_query_probes += result.stale_dead_probes
        agg.refused_probes += result.refused_probes
        agg.total_results += result.results
        agg.spurious_timeout_probes += result.spurious_timeouts
        agg.probe_retries += result.retries
        agg.retry_recovered_probes += result.retry_recoveries
        agg.wrongful_query_evictions += result.wrongful_evictions
        agg.dead_query_evictions += result.dead_evictions
        agg.refusal_query_evictions += result.refusal_evictions
        agg.suppressed_query_probes += result.suppressed_probes
        agg.query_retries_denied += result.retries_denied
        agg.total_honest_results += result.verified_results
        agg.honest_satisfied_queries += 1 if result.verified_satisfied else 0
        if result.response_time is not None:
            self._response_time_sum += result.response_time
            self._response_times += 1
        if self.keep_queries:
            self._queries.append(result)

    def record_ping(
        self,
        dead: bool,
        time: float,
        *,
        spurious: bool = False,
        retries: int = 0,
        recovered: bool = False,
        wrongful: bool = False,
        dead_evicted: bool = False,
        refusal_evicted: bool = False,
        denied: bool = False,
        stale: bool = False,
    ) -> None:
        """Record one maintenance ping and whether it found a corpse.

        Args:
            dead: the ping's final outcome was a timeout.
            time: ping timestamp (warmup-filtered).
            spurious: the timeout hit a live target (injected loss).
            retries: extra sends the retry policy made for this ping.
            recovered: a retry resolved what first looked like a death.
            wrongful: a live link-cache entry was evicted off the back
                of a spurious timeout.
            dead_evicted: the timeout evicted the target's entry.
            refusal_evicted: a refusal evicted the target's entry (the
                ``do_backoff=False`` reflex the breaker replaces).
            denied: the retry schedule was cut short by an exhausted
                retry-token budget.
            stale: the dead target departed *after* the pinging peer
                acquired its pointer — the preventable kind of dead
                probe push invalidation targets (vs dead-on-arrival
                imports and ghost addresses).
        """
        if not self._measured(time):
            return
        c = self._c
        c.pings_sent.inc()
        c.ping_retries.inc(retries)
        if recovered:
            c.ping_retry_recoveries.inc()
        if denied:
            c.ping_retries_denied.inc()
        if refusal_evicted:
            c.refusal_ping_evictions.inc()
        if dead:
            c.dead_pings.inc()
            if spurious:
                c.spurious_dead_pings.inc()
            if wrongful:
                c.wrongful_ping_evictions.inc()
            if dead_evicted:
                c.dead_ping_evictions.inc()
            if stale:
                c.stale_dead_pings.inc()

    def record_gossip_rumor(self, time: float) -> None:
        """Count one rumor seeded from a ping's pong harvest."""
        if not self._measured(time):
            return
        self._c.gossip_rumors.inc()

    def record_gossip_push(
        self,
        time: float,
        *,
        delivered: bool,
        imported: int = 0,
        refused: bool = False,
    ) -> None:
        """Record one GossipPush send and its outcome.

        Args:
            time: send timestamp (warmup-filtered).
            delivered: the push reached a live peer and was accepted.
            imported: cache entries the receiver actually admitted.
            refused: the receiver shed the push (rate limit / shedding).
        """
        if not self._measured(time):
            return
        c = self._c
        c.gossip_pushes.inc()
        if delivered:
            c.gossip_delivered.inc()
            c.gossip_imports.inc(imported)
        elif refused:
            c.gossip_refused.inc()

    def record_gossip_suppressed_forward(self, time: float) -> None:
        """Count a forwarding hop a suppress-mode reporter refused to relay."""
        if not self._measured(time):
            return
        self._c.gossip_suppressed_forwards.inc()

    def record_freshness_notice(
        self,
        time: float,
        *,
        delivered: bool,
        purged: bool = False,
        refused: bool = False,
    ) -> None:
        """Record one push-invalidation ``CacheUpdate`` send.

        Args:
            time: send timestamp (warmup-filtered).
            delivered: the notice reached a live peer.
            purged: the receiver actually held (and purged or demoted)
                the stale entry — the interest-path forwarding signal.
            refused: the receiver shed the notice (rate limit).
        """
        if not self._measured(time):
            return
        c = self._c
        c.freshness_notices.inc()
        if delivered:
            c.freshness_notices_delivered.inc()
            if purged:
                c.freshness_purges.inc()
        elif refused:
            c.freshness_notices_refused.inc()

    def record_freshness_refresh(self, time: float, imported: int) -> None:
        """Count entries a notifier imported off a ``CacheUpdateAck`` pong."""
        if not self._measured(time):
            return
        self._c.freshness_refresh_imports.inc(imported)

    def record_suppressed_ping(self, time: float) -> None:
        """Record a maintenance ping skipped by an open circuit breaker."""
        if not self._measured(time):
            return
        self._c.suppressed_pings.inc()

    def record_death(self, time: float) -> None:
        """Count a peer departure (post-warmup)."""
        if self._measured(time):
            self._c.deaths.inc()

    def record_birth(self, time: float) -> None:
        """Count a peer arrival (post-warmup)."""
        if self._measured(time):
            self._c.births.inc()

    def harvest_peer(
        self,
        address: Address,
        probes_received: int,
        probes_refused: int,
        pings_shed: int = 0,
    ) -> None:
        """Absorb a peer's lifetime counters (at its death or at report).

        Loads accumulate across harvests, so harvesting a live peer at
        report time after its death-time harvest would double-count —
        the simulation harvests each peer exactly once.
        """
        self._loads[address] = self._loads.get(address, 0) + probes_received
        self._refusals[address] = (
            self._refusals.get(address, 0) + probes_refused
        )
        self.pings_shed_total += pings_shed

    def record_health_sample(self, sample: CacheHealthSample) -> None:
        """Append one periodic cache-health snapshot (post-warmup only)."""
        if sample.time >= self.warmup:
            self._health.append(sample)

    def record_transport(
        self,
        *,
        probes_sent: int,
        timeouts: int,
        refusals: int,
        spurious_timeouts: int = 0,
    ) -> None:
        """Absorb the transport's lifetime counters (once, at report time).

        These cover *every* probe the wire carried — queries, pings, and
        retries, warmup included — so they are the ground truth the
        per-channel (query/ping) accounting can be reconciled against.
        """
        self.transport_probes_sent = probes_sent
        self.transport_timeouts = timeouts
        self.transport_refusals = refusals
        self.transport_spurious_timeouts = spurious_timeouts

    @property
    def registry(self) -> MetricsRegistry:
        """The registry holding this collector's instruments."""
        return self._registry

    def _satisfaction_windows(self) -> tuple:
        """Flush and render the satisfaction channel's window rows.

        Each row is a plain ``(start, end, queries, satisfied)`` tuple —
        :func:`repro.resilience.recovery.to_windows` adapts them.  The
        final partial window is flushed by advancing one full width past
        the last recorded query, so recovery tails are never dropped.
        """
        if self._sat_registry is None:
            return ()
        width = self._sat_registry.window
        assert width is not None
        self._sat_registry.advance(self._last_query_time + width)
        rows = []
        for snap in self._sat_registry.window_snapshots:
            queries = int(snap.values.get(self.METRIC_WINDOW_QUERIES, 0))
            if not queries:
                continue
            rows.append((
                snap.start,
                snap.end,
                queries,
                int(snap.values.get(self.METRIC_WINDOW_SATISFIED, 0)),
            ))
        return tuple(rows)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def build_report(
        self, trace_digest: Optional[str] = None
    ) -> "SimulationReport":
        """Freeze the accumulated metrics into a report.

        Args:
            trace_digest: the engine's executed-event digest, when the
                run was traced (``trace_hash=True``); lands on
                :attr:`SimulationReport.trace_digest` so manifests can
                record it per trial.
        """
        return SimulationReport(
            **{name: counter.value for name, counter in vars(self._c).items()},
            **asdict(self._agg),
            mean_response_time=(
                self._response_time_sum / self._response_times
                if self._response_times
                else None
            ),
            loads=dict(self._loads),
            refusals=dict(self._refusals),
            health_samples=tuple(self._health),
            query_results=tuple(self._queries) if self.keep_queries else (),
            pings_shed=self.pings_shed_total,
            satisfaction_windows=self._satisfaction_windows(),
            transport_probes_sent=self.transport_probes_sent,
            transport_timeouts=self.transport_timeouts,
            transport_refusals=self.transport_refusals,
            transport_spurious_timeouts=self.transport_spurious_timeouts,
            trace_digest=trace_digest,
        )


@dataclass(frozen=True)
class SimulationReport:
    """Frozen end-of-run metrics; the experiment layer's input."""

    queries: int
    satisfied_queries: int
    total_probes: int
    good_probes: int
    dead_probes: int
    refused_probes: int
    mean_response_time: Optional[float]
    pings_sent: int
    dead_pings: int
    births: int
    deaths: int
    loads: Dict[Address, int] = field(default_factory=dict)
    refusals: Dict[Address, int] = field(default_factory=dict)
    health_samples: tuple = ()
    query_results: tuple = ()
    #: Results actually returned across all queries (results-per-query).
    total_results: int = 0
    #: Query dead-probes whose target was live (fault-injected losses).
    spurious_timeout_probes: int = 0
    #: Extra query-probe sends made by the retry policy.
    probe_retries: int = 0
    #: Query probes that a retry resolved after an initial timeout.
    retry_recovered_probes: int = 0
    #: Live link-cache entries evicted by lossy query probes.
    wrongful_query_evictions: int = 0
    #: Query-probe evictions caused by timeouts (includes the wrongful
    #: subset above).
    dead_query_evictions: int = 0
    #: Query-probe evictions caused by refusals (``do_backoff=False``).
    refusal_query_evictions: int = 0
    #: Query probes skipped because the target's breaker was open.
    suppressed_query_probes: int = 0
    #: Query probes whose retries were cut short by the token budget.
    query_retries_denied: int = 0
    #: Honest (omniscient-observer) results across all queries; equals
    #: ``total_results`` unless faulty reporters falsified claims.
    total_honest_results: int = 0
    #: Queries satisfied under honest result accounting.
    honest_satisfied_queries: int = 0
    #: Gossip-assisted relay accounting (all zero when the relay is off):
    #: rumors seeded from ping harvests, GossipPush sends, pushes accepted
    #: by a live receiver, pushes shed/refused, cache entries imported off
    #: rumors, and forwarding hops suppress-mode reporters refused.
    gossip_rumors: int = 0
    gossip_pushes: int = 0
    gossip_delivered: int = 0
    gossip_refused: int = 0
    gossip_imports: int = 0
    gossip_suppressed_forwards: int = 0
    #: Freshness accounting (repro.freshness): the stale share of query
    #: dead-probes / dead pings (target departed after the pointer was
    #: acquired — the preventable kind), and the push-invalidation
    #: channel: CacheUpdate sends, sends reaching a live peer, sends
    #: shed by rate limits, receivers that actually purged/demoted the
    #: stale entry, and entries refreshed off ack pongs.  The stale
    #: split is always recorded; the notice counters are zero unless a
    #: FreshnessPlan armed push invalidation.
    stale_dead_query_probes: int = 0
    stale_dead_pings: int = 0
    freshness_notices: int = 0
    freshness_notices_delivered: int = 0
    freshness_notices_refused: int = 0
    freshness_purges: int = 0
    freshness_refresh_imports: int = 0
    #: Dead pings whose target was live (fault-injected losses).
    spurious_dead_pings: int = 0
    #: Extra ping sends made by the retry policy.
    ping_retries: int = 0
    #: Pings that a retry resolved after an initial timeout.
    ping_retry_recoveries: int = 0
    #: Live link-cache entries evicted by lossy pings.
    wrongful_ping_evictions: int = 0
    #: Ping evictions caused by timeouts / by refusals, split by cause.
    dead_ping_evictions: int = 0
    refusal_ping_evictions: int = 0
    #: Maintenance pings skipped because the target's breaker was open.
    suppressed_pings: int = 0
    #: Pings whose retries were cut short by the token budget.
    ping_retries_denied: int = 0
    #: Incoming pings refused by graded load shedding (receiver side).
    pings_shed: int = 0
    #: Per-window ``(start, end, queries, satisfied)`` rows from the
    #: collector's satisfaction channel (empty unless a
    #: ``satisfaction_window`` was configured); the input to
    #: :func:`repro.resilience.recovery.time_to_recovery`.
    satisfaction_windows: tuple = ()
    #: Transport-lifetime totals (queries + pings + retries, warmup
    #: included) — the wire's ground truth.
    transport_probes_sent: int = 0
    transport_timeouts: int = 0
    transport_refusals: int = 0
    transport_spurious_timeouts: int = 0
    #: Executed-event digest of the run (None unless ``trace_hash=True``);
    #: recorded into run manifests so published numbers can be replayed
    #: and verified bit for bit.
    trace_digest: Optional[str] = None

    def fingerprint(self) -> str:
        """sha256 over everything the run measured, the trace digest excepted.

        Every scalar field by name, plus the per-peer ``loads`` and
        ``refusals`` in address order and the health samples in time
        order.  The trace digest folds fired events only, so two runs
        whose queries probed differently can share it; they never share
        this.
        """
        scalars = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "trace_digest"
            and isinstance(getattr(self, f.name), (type(None), bool, int, float, str))
        }
        payload = {
            "scalars": scalars,
            "loads": sorted(self.loads.items()),
            "refusals": sorted(self.refusals.items()),
            "health": [astuple(s) for s in self.health_samples],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- Paper metrics --------------------------------------------------

    @property
    def probes_per_query(self) -> float:
        """Average probes per query (the paper's primary cost metric)."""
        return ratio(self.total_probes, self.queries)

    @property
    def good_probes_per_query(self) -> float:
        """Average probes reaching live peers, per query."""
        return ratio(self.good_probes, self.queries)

    @property
    def dead_probes_per_query(self) -> float:
        """Average wasted probes ("DeadIPs/Query") per query."""
        return ratio(self.dead_probes, self.queries)

    @property
    def refused_probes_per_query(self) -> float:
        """Average refused probes per query (Figure 14)."""
        return ratio(self.refused_probes, self.queries)

    @property
    def unsatisfied_rate(self) -> float:
        """Proportion of queries not reaching NumDesiredResults results."""
        if self.queries == 0:
            return 0.0
        return 1.0 - self.satisfied_queries / self.queries

    @property
    def satisfaction_rate(self) -> float:
        """Complement of :attr:`unsatisfied_rate`."""
        return 1.0 - self.unsatisfied_rate

    # -- Honest accounting (repro.core.malicious.FaultyReporter) ---------

    @property
    def results_per_query(self) -> float:
        """Average results returned per query (as *claimed* by responders)."""
        return ratio(self.total_results, self.queries)

    @property
    def honest_results_per_query(self) -> float:
        """Average honest (omniscient) results per query.

        Equals :attr:`results_per_query` unless faulty reporters inflated
        or suppressed their claims.
        """
        return ratio(self.total_honest_results, self.queries)

    # -- Fault / retry metrics (repro.faults) ----------------------------

    @property
    def spurious_timeouts_per_query(self) -> float:
        """Average live-target timeouts per query (loss masquerading as
        death; 0 without fault injection)."""
        return ratio(self.spurious_timeout_probes, self.queries)

    @property
    def retry_recovery_rate(self) -> float:
        """Fraction of first-attempt query timeouts a retry bought back.

        Denominator: probes whose first attempt timed out = recoveries
        (eventually resolved) + final dead probes that burned at least
        one retry.  0.0 when retries are disabled.
        """
        attempted = self.retry_recovered_probes + (
            self.dead_probes if self.probe_retries > 0 else 0
        )
        return ratio(self.retry_recovered_probes, attempted)

    @property
    def wrongful_evictions(self) -> int:
        """Live link-cache entries evicted as "dead" (query + ping paths)."""
        return self.wrongful_query_evictions + self.wrongful_ping_evictions

    # -- Resilience metrics (repro.resilience) ---------------------------

    @property
    def dead_evictions(self) -> int:
        """Evictions caused by probe timeouts (query + ping paths)."""
        return self.dead_query_evictions + self.dead_ping_evictions

    @property
    def refusal_evictions(self) -> int:
        """Evictions caused by refusals under ``do_backoff=False``.

        The cause-split counterpart of :attr:`dead_evictions`; zero when
        circuit breakers are armed (the breaker suppresses instead of
        evicting), which is exactly how the breaker's benefit is
        attributed.
        """
        return self.refusal_query_evictions + self.refusal_ping_evictions

    @property
    def suppressed_probes(self) -> int:
        """Probes skipped by open circuit breakers (query + ping paths)."""
        return self.suppressed_query_probes + self.suppressed_pings

    @property
    def retries_denied(self) -> int:
        """Retry schedules cut short by exhausted token budgets."""
        return self.query_retries_denied + self.ping_retries_denied

    # -- Cache health (Table 3, Figures 18/21) ---------------------------

    @property
    def mean_fraction_live(self) -> float:
        """Time-averaged fraction of live link-cache entries."""
        return mean([s.fraction_live for s in self.health_samples])

    @property
    def mean_absolute_live(self) -> float:
        """Time-averaged absolute number of live link-cache entries."""
        return mean([s.absolute_live for s in self.health_samples])

    @property
    def mean_good_entries(self) -> float:
        """Time-averaged live-and-non-malicious entries per good peer."""
        return mean([s.good_entries for s in self.health_samples])

    @property
    def mean_cache_fill(self) -> float:
        """Time-averaged entries held per cache."""
        return mean([s.cache_fill for s in self.health_samples])

    # -- Load / fairness (Figure 13) -------------------------------------

    def load_distribution(self) -> LoadDistribution:
        """Ranked per-peer received-probe distribution."""
        return LoadDistribution(self.loads)
