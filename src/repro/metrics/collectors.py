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
from dataclasses import asdict, astuple, dataclass, field, fields, make_dataclass
from math import floor, inf
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # annotation-only: a runtime import would close the
    # baselines → metrics → core → metrics cycle.
    from repro.core.peer import ProbeTally
    from repro.core.search import QueryResult

from repro.errors import ConfigError
from repro.metrics.load import LoadDistribution
from repro.metrics.summary import mean, ratio
from repro.network.address import Address


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


class MetricsCollector:
    """Accumulates metrics during a simulation run.

    Args:
        warmup: queries and pings before this time are ignored, letting
            caches reach steady state before measurement (the load and
            cache-health channels also honour it).
        satisfaction_window: width in virtual seconds of the
            satisfaction-tracking windows (the raw material for the
            time-to-recovery metric in
            :mod:`repro.resilience.recovery`); ``None`` (the default)
            disables the channel and the report's
            ``satisfaction_windows`` stays empty.
    """

    def __init__(
        self,
        warmup: float = 0.0,
        satisfaction_window: Optional[float] = None,
    ) -> None:
        # Written so that NaN fails both checks.
        if not warmup >= 0:
            raise ConfigError(f"warmup must be >= 0, got {warmup}")
        if satisfaction_window is not None and not 0 < satisfaction_window < inf:
            raise ConfigError(
                "satisfaction_window must be > 0 and finite, got "
                f"{satisfaction_window}"
            )
        self.warmup = float(warmup)
        self._tally = _Tally()
        self._response_time_sum = 0.0
        self._response_times = 0
        self._loads: Dict[Address, int] = {}
        self._refusals: Dict[Address, int] = {}
        self._health: List[CacheHealthSample] = []
        # The satisfaction-window channel: one open window, the closed
        # (start, end, queries, satisfied) rows, and the last query time
        # the final flush counts from.
        self._width = (
            float(satisfaction_window) if satisfaction_window is not None else None
        )
        self._window_start = 0.0
        self._window_queries = 0
        self._window_satisfied = 0
        self._windows: List[tuple] = []
        self._last_query_time = 0.0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def record_query(self, result: QueryResult, time: float) -> None:
        """Record one query outcome (ignored during warmup)."""
        if time < self.warmup:
            return
        if self._width is not None:
            self._close_window(time)
            self._window_queries += 1
            self._window_satisfied += 1 if result.satisfied else 0
            self._last_query_time = time
        t = self._tally
        t.queries += 1
        t.satisfied_queries += 1 if result.satisfied else 0
        t.total_probes += result.probes
        t.good_probes += result.good_probes
        t.dead_probes += result.dead_probes
        t.stale_dead_query_probes += result.stale_dead_probes
        t.refused_probes += result.refused_probes
        t.total_results += result.results
        t.spurious_timeout_probes += result.spurious_timeouts
        t.probe_retries += result.retries
        t.retry_recovered_probes += result.retry_recoveries
        t.wrongful_query_evictions += result.wrongful_evictions
        t.dead_query_evictions += result.dead_evictions
        t.refusal_query_evictions += result.refusal_evictions
        t.suppressed_query_probes += result.suppressed_probes
        t.query_retries_denied += result.retries_denied
        t.total_honest_results += result.verified_results
        t.honest_satisfied_queries += 1 if result.verified_satisfied else 0
        if result.response_time is not None:
            self._response_time_sum += result.response_time
            self._response_times += 1

    def record_ping(self, tally: "ProbeTally", time: float) -> None:
        """Book one maintenance ping's :class:`~repro.core.peer.ProbeTally`.

        Ignored during warmup.  A ping an open breaker suppressed sent
        nothing and counts only in ``suppressed_probes``.
        """
        if time < self.warmup:
            return
        t = self._tally
        t.pings_sent += tally.probes
        t.suppressed_pings += tally.suppressed_probes
        t.ping_retries += tally.retries
        t.ping_retry_recoveries += tally.retry_recoveries
        t.ping_retries_denied += tally.retries_denied
        t.refusal_ping_evictions += tally.refusal_evictions
        if tally.dead_probes:
            t.dead_pings += tally.dead_probes
            t.stale_dead_pings += tally.stale_dead_probes
            t.spurious_dead_pings += tally.spurious_timeouts
            t.wrongful_ping_evictions += tally.wrongful_evictions
            t.dead_ping_evictions += tally.dead_evictions

    def record_gossip_rumor(self, time: float) -> None:
        """Count one rumor seeded from a ping's pong harvest."""
        if time >= self.warmup:
            self._tally.gossip_rumors += 1

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
        if time < self.warmup:
            return
        t = self._tally
        t.gossip_pushes += 1
        if delivered:
            t.gossip_delivered += 1
            t.gossip_imports += imported
        elif refused:
            t.gossip_refused += 1

    def record_gossip_suppressed_forward(self, time: float) -> None:
        """Count a forwarding hop a suppress-mode reporter refused to relay."""
        if time >= self.warmup:
            self._tally.gossip_suppressed_forwards += 1

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
        if time < self.warmup:
            return
        t = self._tally
        t.freshness_notices += 1
        if delivered:
            t.freshness_notices_delivered += 1
            if purged:
                t.freshness_purges += 1
        elif refused:
            t.freshness_notices_refused += 1

    def record_freshness_refresh(self, time: float, imported: int) -> None:
        """Count entries a notifier imported off a ``CacheUpdateAck`` pong."""
        if time >= self.warmup:
            self._tally.freshness_refresh_imports += imported

    def record_death(self, time: float) -> None:
        """Count a peer departure (post-warmup)."""
        if time >= self.warmup:
            self._tally.deaths += 1

    def record_birth(self, time: float) -> None:
        """Count a peer arrival (post-warmup)."""
        if time >= self.warmup:
            self._tally.births += 1

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
        self._tally.pings_shed += pings_shed

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
        t = self._tally
        t.transport_probes_sent = probes_sent
        t.transport_timeouts = timeouts
        t.transport_refusals = refusals
        t.transport_spurious_timeouts = spurious_timeouts

    def _close_window(self, now: float) -> None:
        """Close the open satisfaction window if ``now`` is past its end.

        A window covers ``[k*w, (k+1)*w)``; one that saw no query leaves
        no row, and the next window opens at the one holding ``now``.  A
        query timed before the open window (a burst's cursor runs ahead
        of the clock) counts in the open window.
        """
        width = self._width
        end = self._window_start + width
        if now < end:
            return
        if self._window_queries:
            self._windows.append((
                self._window_start,
                end,
                self._window_queries,
                self._window_satisfied,
            ))
            self._window_queries = self._window_satisfied = 0
        self._window_start = floor(now / width) * width

    def _satisfaction_windows(self) -> tuple:
        """Flush and return the satisfaction channel's window rows.

        Each row is a plain ``(start, end, queries, satisfied)`` tuple —
        :func:`repro.resilience.recovery.to_windows` adapts them.  The
        final partial window is flushed by closing at one full width past
        the last recorded query, so recovery tails are never dropped.
        """
        if self._width is None:
            return ()
        self._close_window(self._last_query_time + self._width)
        return tuple(self._windows)

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
            **asdict(self._tally),
            mean_response_time=(
                self._response_time_sum / self._response_times
                if self._response_times
                else None
            ),
            loads=dict(self._loads),
            refusals=dict(self._refusals),
            health_samples=tuple(self._health),
            satisfaction_windows=self._satisfaction_windows(),
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
        ``refusals`` in address order, the health samples in time order
        and, when the run kept any, the satisfaction windows.  The trace
        digest folds fired events only, so two runs whose queries probed
        differently can share it; they never share this.  Every field
        but the digest is hashed, so equal fingerprints are equal reports.
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
        if self.satisfaction_windows:
            # Keyed only when present, so a run without the channel
            # hashes as it always did.
            payload["windows"] = self.satisfaction_windows
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


#: Every count the collector keeps: one ``int`` field, from 0, per ``int``
#: field of :class:`SimulationReport`, which ``build_report`` copies by name.
_Tally = make_dataclass(
    "_Tally",
    [(f.name, int, 0) for f in fields(SimulationReport) if f.type == "int"],
    namespace={"__module__": __name__},  # so a collector pickles
    slots=True,
)
