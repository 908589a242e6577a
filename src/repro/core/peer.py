"""A well-behaved GUESS peer.

:class:`GuessPeer` implements the receiving side of the protocol — it is
the :class:`~repro.network.transport.Endpoint` registered with the
transport — plus the cache-ingestion helpers the initiating side (ping
cycle and query loop, driven by :mod:`repro.core.network_sim` and
:mod:`repro.core.search`) shares with it:

* answer Pings with Pongs built by the PingPong policy;
* answer Queries with a result count (does my library hold the target?)
  and a piggybacked Pong built by the QueryPong policy;
* refuse probes beyond ``MaxProbesPerSecond`` (Section 6.3) — with the
  optional graded-shedding refinement a
  :class:`~repro.resilience.policy.ResiliencePolicy` arms, which refuses
  *pings* at a soft threshold below the hard limit
  (:data:`~repro.resilience.policy.SOFT_FRACTION` of it) so the
  remaining capacity keeps serving queries;
* apply the introduction rule: cache the prober with probability
  ``IntroProb`` (Section 2.2);
* import a pong's entries through the CacheReplacement policy in one
  call, honouring the MR* ``reset_num_results`` ingestion rule;
* apply a probe's outcome to the prober's own cache, for pings and query
  probes alike (:meth:`GuessPeer.probe_entry`).
"""

from __future__ import annotations

import random
from typing import Collection, Optional, Sequence, Tuple

from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.messages import (
    CacheUpdate,
    CacheUpdateAck,
    GossipAck,
    GossipPush,
    Ping,
    Pong,
    Query,
    QueryReply,
    Refusal,
)
from repro.core.params import ProtocolParams
from repro.core.policies import PolicySet
from repro.faults.retry import probe_with_retry
from repro.network.address import Address
from repro.network.transport import ProbeOutcome, ProbeStatus, Transport
from repro.resilience.breaker import BreakerBoard
from repro.resilience.budget import RetryBudget
from repro.resilience.policy import SOFT_FRACTION, ResiliencePolicy
from repro.sim.windows import BucketedRateLimiter
from repro.workload.content import NONEXISTENT_FILE


class ProbeTally:
    """Probe counts, named as :class:`~repro.core.search.QueryResult` names them.

    A query keeps one for all its probes, a maintenance ping one of its own.
    """

    __slots__ = (
        "probes", "good_probes", "dead_probes", "refused_probes",
        "stale_dead_probes", "spurious_timeouts", "retries",
        "retry_recoveries", "wrongful_evictions", "dead_evictions",
        "refusal_evictions", "suppressed_probes", "retries_denied",
    )

    def __init__(self) -> None:
        self.probes = self.good_probes = self.dead_probes = self.refused_probes = 0
        self.stale_dead_probes = self.spurious_timeouts = self.retries = 0
        self.retry_recoveries = self.wrongful_evictions = self.dead_evictions = 0
        self.refusal_evictions = self.suppressed_probes = self.retries_denied = 0


class GuessPeer:
    """One good (protocol-following) peer.

    Args:
        address: this peer's address.
        num_files: advertised shared-file count (drives MFS at *other*
            peers; honest peers advertise their true library size).
        library: owned file ranks; asked only ``in``, ``len`` and
            iteration (:class:`~repro.workload.content.Library`).
        birth_time: when the peer joined.
        death_time: when it will silently leave.
        protocol: normalised protocol parameters.
        policies: the shared, instantiated policy set.
        max_probes_per_second: capacity limit (None = unlimited).
        policy_rng: stream used for policy randomness (Random policy,
            eviction contests).
        intro_rng: stream used for introduction coin flips.
        resilience: a policy arms all three graceful-degradation
            mechanisms (breakers, retry budget, graded shedding);
            ``None`` keeps the plain-paper behaviour on every code path.
        cache_capacity: per-peer link-cache capacity override
            (heterogeneous :class:`~repro.freshness.plan.CacheSizing`);
            ``None`` uses the global ``protocol.cache_size``.
    """

    #: Class-level flag distinguishing good peers from malicious ones in
    #: metrics without isinstance checks on the hot path.
    malicious: bool = False

    #: Class-level flag for faulty reporters (misreporting adversaries);
    #: see :class:`~repro.core.malicious.FaultyReporter`.
    faulty: bool = False

    #: True for peers that refuse to re-forward gossip rumors (the
    #: suppress-mode faulty reporter); checked by the gossip-assisted
    #: relay before scheduling the next hop.
    suppresses_gossip: bool = False

    # At million-peer scale the per-peer ``__dict__`` (~100 bytes each,
    # plus boxed values) dominates RSS; fixed slots cut the per-peer
    # footprint roughly in half and make attribute reads a fixed-offset
    # load.  Scalar per-peer state additionally lives in the
    # struct-of-arrays columns of :class:`~repro.core.peer_store.PeerStore`.
    __slots__ = (
        "address",
        "num_files",
        "library",
        "birth_time",
        "death_time",
        "protocol",
        "policies",
        "link_cache",
        "_limiter",
        "_policy_rng",
        "_intro_rng",
        "defense",
        "breakers",
        "retry_budget",
        "_soft_limit",
        "probes_received",
        "probes_refused",
        "pings_shed",
    )

    def __init__(
        self,
        address: Address,
        *,
        num_files: int,
        library: Collection[int],
        birth_time: float,
        death_time: float,
        protocol: ProtocolParams,
        policies: PolicySet,
        max_probes_per_second: int | None,
        policy_rng: random.Random,
        intro_rng: random.Random,
        resilience: ResiliencePolicy | None = None,
        cache_capacity: int | None = None,
    ) -> None:
        if death_time <= birth_time:
            raise ValueError(
                f"death_time {death_time} must exceed birth_time {birth_time}"
            )
        self.address = address
        self.num_files = int(num_files)
        self.library = library
        self.birth_time = float(birth_time)
        self.death_time = float(death_time)
        self.protocol = protocol
        self.policies = policies
        self.link_cache = LinkCache(
            protocol.cache_size if cache_capacity is None else cache_capacity,
            owner=address,
        )
        self._limiter = (
            BucketedRateLimiter(window=1.0, limit=max_probes_per_second)
            if max_probes_per_second is not None
            else None
        )
        self._policy_rng = policy_rng
        self._intro_rng = intro_rng
        # Optional defense hooks (repro.extensions.detection).  When set,
        # entry imports report provenance and blacklisted sources/targets
        # are dropped; None keeps the plain-paper behaviour.
        self.defense = None
        # Resilience mechanisms (repro.resilience).  All default to the
        # do-nothing None so an unarmed peer runs the exact pre-existing
        # code paths.
        armed = resilience is not None
        self.breakers = BreakerBoard() if armed else None
        self.retry_budget = RetryBudget() if armed else None
        self._soft_limit = (
            max(1, int(SOFT_FRACTION * max_probes_per_second))
            if armed and max_probes_per_second is not None
            else None
        )
        # Lifetime counters harvested by the metrics collector.
        self.probes_received = 0
        self.probes_refused = 0
        self.pings_shed = 0

    # ------------------------------------------------------------------
    # Liveness (Endpoint protocol)
    # ------------------------------------------------------------------

    def is_alive(self, time: float) -> bool:
        """Alive on [birth_time, death_time)."""
        return self.birth_time <= time < self.death_time

    # ------------------------------------------------------------------
    # Receiving probes (Endpoint protocol)
    # ------------------------------------------------------------------

    def receive_probe(self, message, time: float) -> Tuple[bool, object]:
        """Handle an incoming Ping, Query, GossipPush, or CacheUpdate probe.

        A ping or query is answered first; then the introduction rule is
        applied here, in the one frame both kinds of probe enter.

        Returns:
            ``(accepted, response)`` per the transport's Endpoint
            contract; a refusal carries a :class:`Refusal` notice.
        """
        self.probes_received += 1
        if self._limiter is not None:
            if (
                self._soft_limit is not None
                and isinstance(message, (Ping, GossipPush, CacheUpdate))
                and self._limiter.count(time) >= self._soft_limit
            ):
                # Graded shedding: above the soft threshold maintenance
                # traffic (pings, gossip rumors) is refused *without*
                # consuming window capacity, reserving the remaining
                # budget for queries.
                self.probes_refused += 1
                self.pings_shed += 1
                return False, Refusal(self.address)
            if not self._limiter.try_record(time):
                self.probes_refused += 1
                return False, Refusal(self.address)
        if isinstance(message, Ping):
            response = self.make_pong(self.policies.ping_pong, time)
        elif isinstance(message, Query):
            response = self._handle_query(message, time)
        elif isinstance(message, GossipPush):
            return True, self._handle_gossip(message, time)
        elif isinstance(message, CacheUpdate):
            return True, self._handle_cache_update(message, time)
        else:
            raise TypeError(f"unsupported probe message: {message!r}")
        # The introduction rule (Section 2.2): cache the prober with
        # probability IntroProb, after the reply's pong drew its entries.
        intro_prob, prober = self.protocol.intro_prob, message.sender
        if (
            intro_prob > 0.0
            and prober != self.address
            and prober not in self.link_cache._entries
            and self._intro_rng.random() < intro_prob
        ):
            entry = CacheEntry(
                address=prober, ts=time, num_files=message.sender_num_files,
                num_res=0, born=time,
            )
            self.link_cache.insert(entry, self.policies.replacement, self._policy_rng)
        return True, response

    def _handle_query(self, message: Query, time: float) -> QueryReply:
        target = message.target_file  # ``ContentModel.matches``, written inline
        num_results = 1 if target != NONEXISTENT_FILE and target in self.library else 0
        pong = self.make_pong(self.policies.query_pong, time)
        return tuple.__new__(QueryReply, (self.address, num_results, pong, None))

    def _handle_gossip(self, message: GossipPush, time: float) -> GossipAck:
        """Ingest an epidemically disseminated pong harvest.

        The rumor's entries are attributed to the peer whose harvest
        seeded it (defense provenance tracks the original source, not
        the forwarding carrier); no introduction coin is flipped — a
        rumor carries no advertised file count.
        """
        pong = Pong(message.origin, message.entries)
        return GossipAck(self.address, self.import_pong_to_link_cache(pong, time))

    def _handle_cache_update(
        self, message: CacheUpdate, time: float
    ) -> CacheUpdateAck:
        """Ingest a push-invalidation notice (:mod:`repro.freshness`).

        A departure notice purges the stale entry outright; an overload
        notice is relayed refusal knowledge — a breaker-armed receiver
        records a remote refusal (keeping the entry cached behind the
        breaker), a plain receiver purges just like a departure.  The
        acknowledgement piggybacks a PingPong-policy Pong so a live
        notifier can refresh the slot the purge vacated.
        """
        subject = message.subject
        purged = False
        if message.departed:
            purged = self.link_cache.evict(subject)
            if purged and self.breakers is not None:
                self.breakers.discard(subject)
        elif subject in self.link_cache:
            purged = True  # "held the entry": the interest-path signal
            if self.breakers is not None:
                self.breakers.record_refusal(subject, time)
            else:
                self.link_cache.evict(subject)
        pong = self.make_pong(self.policies.ping_pong, time)
        return CacheUpdateAck(sender=self.address, purged=purged, pong=pong)

    # ------------------------------------------------------------------
    # Pong construction
    # ------------------------------------------------------------------

    def make_pong(self, pong_policy, time: float) -> Pong:
        """Build a Pong showing up to ``PongSize`` link-cache entries.

        The entries are this peer's residents, not clones: the receiver's
        caches clone what they keep (``LinkCache.admit`` of a shown pong,
        ``QueryCache.add``), so an entry nobody keeps costs nothing.
        """
        selected = self.link_cache.select_top(
            pong_policy, self.protocol.pong_size, self._policy_rng
        )
        return tuple.__new__(Pong, (self.address, tuple(selected)))

    # ------------------------------------------------------------------
    # Initiator-side helpers (used by the ping cycle and query loop)
    # ------------------------------------------------------------------

    def import_pong_to_link_cache(self, pong: Pong, now: float) -> int:
        """Ingest a pong's entries into the link cache, in one call.

        Applies the MR* ``reset_num_results`` rule and the replacement
        policy, cloning only the entries kept; when defense hooks are
        installed, drops a blacklisted sender's pong and the entries
        :meth:`screen` drops.  Returns the number of entries inserted.
        """
        if self.defense is not None and self.defense.blocked(pong.sender):
            return 0
        return self.link_cache.admit(
            self.screen(pong), self.policies.replacement, now, self._policy_rng,
            shown=True, reset_num_results=self.policies.reset_num_results,
        )

    def screen(self, pong: Pong) -> Sequence[CacheEntry]:
        """``pong``'s entries not pointing at a blacklisted peer, each one
        reported to the defense hooks as imported from the pong's sender."""
        defense = self.defense
        if defense is None:
            return pong.entries
        shown = []
        for entry in pong.entries:
            if not defense.blocked(entry.address):
                defense.record_import(entry.address, pong.sender)
                shown.append(entry)
        return shown

    def probe_entry(
        self,
        entry: CacheEntry,
        message: Ping | Query,
        transport: Transport,
        now: float,
        tally: ProbeTally,
    ) -> Tuple[ProbeOutcome, float]:
        """Probe a cached entry, apply the outcome here, add its counts to ``tally``.

        The message goes out through the retry policy when one is set.  A
        timeout evicts the entry and drops its breaker; a refusal counts
        against the breaker, or evicts under ``do_backoff=False`` without
        breakers; a delivery closes the breaker.  Returns the outcome and
        the virtual seconds its retries waited (0.0 without retries).
        """
        address = entry.address
        retry = self.policies.retry
        tally.probes += 1
        if retry is None:
            outcome = transport.probe(self.address, address, message, now)
            delay = 0.0
        else:
            attempt = probe_with_retry(
                transport, retry, self.address, address, message, now,
                self.retry_budget,
            )
            outcome, delay = attempt.outcome, attempt.delay
            tally.retries += attempt.retries
            if attempt.recovered:
                tally.retry_recoveries += 1
            if attempt.denied:
                tally.retries_denied += 1
        status = outcome.status
        breakers = self.breakers
        if status is ProbeStatus.DELIVERED:
            tally.good_probes += 1
            if breakers is not None:
                breakers.record_success(address)
        elif status is ProbeStatus.REFUSED:
            tally.refused_probes += 1
            if breakers is not None:
                # The breaker substitutes for refusal eviction: the
                # entry stays cached, probes stop once it trips.
                breakers.record_refusal(address, now)
            elif not self.protocol.do_backoff and self.link_cache.evict(address):
                # The paper's inherent throttling: treat the refusal like
                # a death so the entry stops circulating in pongs.
                tally.refusal_evictions += 1
        else:
            tally.dead_probes += 1
            # Omniscient fresh-vs-stale split: stale means the pointer was
            # acquired before its target departed (push invalidation could
            # have purged it); dead-on-arrival imports and ghosts are fresh.
            departed_at = transport.departure_time(address)
            if departed_at is not None and entry.born < departed_at:
                tally.stale_dead_probes += 1
            evicted = self.link_cache.evict(address)
            if evicted:
                tally.dead_evictions += 1
            if outcome.spurious:
                tally.spurious_timeouts += 1
                if evicted:
                    tally.wrongful_evictions += 1
            if breakers is not None:
                breakers.discard(address)
        return outcome, delay

    def choose_ping_target(self) -> Optional[CacheEntry]:
        """The entry the PingProbe policy says to ping next."""
        return self.link_cache.select_best(self.policies.ping_probe, self._policy_rng)

    def ping_message(self) -> Ping:
        """The Ping this peer sends when maintaining its cache."""
        return Ping(sender=self.address, sender_num_files=self.num_files)

    def query_message(self, target_file: int) -> Query:
        """The Query probe for ``target_file``."""
        return Query(
            sender=self.address,
            target_file=target_file,
            sender_num_files=self.num_files,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(address={self.address}, "
            f"files={self.num_files}, cache={len(self.link_cache)})"
        )
