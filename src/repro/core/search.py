"""Query execution (paper Sections 2.3, 3.1, 6.2).

The querying peer iterates over candidate targets — link-cache entries
first-class, query-cache entries as pongs arrive — ordered by the
QueryProbe policy, probing one at a time until ``NumDesiredResults``
results are in hand or no unprobed candidate remains.

Timing: the GUESS spec serialises probes with a 0.2 s spacing, so probe
*i* of a query issued at ``t0`` carries virtual timestamp
``t0 + (i // k) * spacing`` where ``k`` is the number of parallel walkers
(k = 1 is the spec's strictly serial mode).  Those timestamps drive both
liveness (a peer that died mid-query stops answering) and the target-side
per-second capacity windows.

Outcome accounting matches the paper's metrics: **good** probes reach a
live peer, **dead** probes time out ("DeadIPs" / wasted probes), and
**refused** probes hit an overloaded peer.

Each probe goes through :meth:`GuessPeer.probe_entry`, which re-sends a
timed-out probe when ``probe_retries > 0``.  Every backoff gap shifts the
remaining waves' timestamps, extends the query's duration, and is folded
into the satisfying reply's response time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Protocol

from repro.core.entry import CacheEntry
from repro.core.messages import Pong, QueryReply
from repro.core.peer import GuessPeer, ProbeTally
from repro.core.query_cache import QueryCache
from repro.network.transport import ProbeStatus, Transport


#: Resolved by name by ``bench/trace.py`` (frozen outside ``benchmark`` PRs).
CandidatePool = QueryCache


class WaveWidth(Protocol):
    """A query's wave widths: ``initial``, then ``next(results the wave gained)``."""

    initial: int

    def next(self, gained: int) -> int: ...


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Everything the metrics layer wants to know about one query.

    Attributes:
        satisfied: whether ``NumDesiredResults`` results were obtained.
        results: results actually obtained.
        probes: total probes issued (= good + dead + refused).
        good_probes: probes answered by live peers.
        dead_probes: probes that timed out (the paper's "DeadIPs").
        stale_dead_probes: the subset of ``dead_probes`` whose candidate
            entry was acquired *before* the target's departure — the
            prober held a pointer that went stale in place, exactly the
            waste push invalidation (:mod:`repro.freshness`) can
            prevent.  The remainder were dead-on-arrival: imported
            after the death (stale pongs, poison) or pointing at
            never-registered ghosts.
        refused_probes: probes refused by overloaded peers.
        duration: seconds of virtual time the query occupied (includes
            retry backoff waiting).
        response_time: seconds from issue to the satisfying reply
            (``None`` for unsatisfied queries).
        pool_exhausted: True if the query ended by running out of
            candidates rather than by satisfaction.
        spurious_timeouts: dead-probe outcomes whose target was actually
            live (fault-injected losses) — the subset of ``dead_probes``
            that corrupts the paper's DeadIPs accounting.
        retries: extra probe sends beyond the first attempt, summed over
            the query's probes.
        retry_recoveries: probes that timed out at least once but were
            resolved (delivered or refused) by a retry.
        wrongful_evictions: live link-cache entries evicted because a
            lost probe masqueraded as a death.
        dead_evictions: link-cache entries evicted because a probe timed
            out (includes the wrongful subset above).
        refusal_evictions: link-cache entries evicted because a probe
            was refused under ``do_backoff=False`` — the reflex the
            circuit breaker replaces.
        suppressed_probes: candidate probes skipped because the target's
            circuit breaker was open.
        retries_denied: probes whose retry schedule was cut short by an
            exhausted retry-token budget.
        honest_results: omniscient-observer result count with faulty
            reporters' lies undone (``None`` = identical to ``results``,
            the case whenever no reply was falsified).
        honest_satisfied: whether the honest count met
            ``NumDesiredResults`` (``None`` = identical to ``satisfied``).
    """

    satisfied: bool
    results: int
    probes: int
    good_probes: int
    dead_probes: int
    refused_probes: int
    duration: float
    response_time: Optional[float]
    pool_exhausted: bool
    stale_dead_probes: int = 0
    spurious_timeouts: int = 0
    retries: int = 0
    retry_recoveries: int = 0
    wrongful_evictions: int = 0
    dead_evictions: int = 0
    refusal_evictions: int = 0
    suppressed_probes: int = 0
    retries_denied: int = 0
    honest_results: Optional[int] = None
    honest_satisfied: Optional[bool] = None

    @property
    def verified_results(self) -> int:
        """The honest result count (equals ``results`` absent liars)."""
        return self.results if self.honest_results is None else self.honest_results

    @property
    def verified_satisfied(self) -> bool:
        """Honest satisfaction (equals ``satisfied`` absent liars)."""
        return self.satisfied if self.honest_satisfied is None else self.honest_satisfied


def execute_query(
    peer: GuessPeer,
    target_file: int,
    transport: Transport,
    now: float,
    *,
    rng: random.Random,
    desired_results: int = 1,
    max_probes: Optional[int] = None,
    harvests: Optional[List["Pong"]] = None,
    width: Optional[WaveWidth] = None,
) -> QueryResult:
    """Run one GUESS query from ``peer`` for ``target_file``.

    Args:
        peer: the querying peer (its link cache is read and updated).
        target_file: content-catalog rank being searched for.
        transport: the probe transport.
        now: query issue time.
        rng: policy randomness stream.
        desired_results: the ``NumDesiredResults`` stopping threshold.
        max_probes: optional hard cap on probes (used by extent ablations;
            the protocol itself probes to exhaustion).
        harvests: optional sink the non-empty pong of every delivered
            query reply is appended to, so the caller can seed gossip
            rumors from query harvests exactly like ping harvests
            (gossip-assisted GUESS).  ``None``, the value whenever the
            gossip plan is disarmed, keeps the loop append-free.
        width: optional per-query :class:`WaveWidth` rule, asked after each
            wave for the next one's width; ``None`` is ``parallel_probes``.

    Returns:
        A :class:`QueryResult`.
    """
    protocol, policies = peer.protocol, peer.policies
    spacing = protocol.probe_spacing
    walkers = protocol.parallel_probes if width is None else width.initial

    link_cache = peer.link_cache  # a resident changes only through it
    residents = link_cache._entries  # read: is a replier resident?
    # The peer's own stream decides its contests, as on every other path
    # into its link cache; ``rng`` orders this query's pops.
    replacement, policy_rng = policies.replacement, peer._policy_rng
    reset = policies.reset_num_results
    query_cache = QueryCache(
        peer.address, policies.query_probe, rng, link_cache.entries()
    )

    message = peer.query_message(target_file)
    results = 0
    lie = 0  # honest count - claimed count, over falsified replies
    falsified = False
    tally = ProbeTally()
    waves = 0
    booked = 0  # results already reported to ``width``
    response_time: Optional[float] = None
    # Cumulative timestamp slip from retry backoff: every second spent
    # waiting on re-sends pushes the remaining waves later.  Stays 0.0
    # without retries, leaving all timestamps bit-identical.
    slip = 0.0

    # Probes go out in waves of ``walkers`` (k = 1 is the spec's strictly
    # serial mode).  Every probe of a wave is in flight together, so a
    # wave is always fully charged even if its first reply satisfies the
    # query — this is exactly why the paper bounds the overhead of
    # k-parallel probing at k-1 extra probes.
    while results < desired_results:
        wave: list[CacheEntry] = []
        while len(wave) < walkers:
            if max_probes is not None and tally.probes + len(wave) >= max_probes:
                break
            entry = query_cache.pop()
            if entry is None:
                break
            wave.append(entry)
        if not wave:
            break
        wave_offset = waves * spacing + slip
        wave_time = now + wave_offset
        waves += 1
        wave_slip = 0.0
        defense, breakers = peer.defense, peer.breakers
        for entry in wave:
            address = entry.address
            if breakers is not None and not breakers.allow(address, wave_time):
                # Open breaker: the target recently shed load, so spare
                # it this probe and keep the entry cached for later.
                tally.suppressed_probes += 1
                continue
            if defense is not None and defense.blocked(address):
                link_cache.evict(address)
                continue
            outcome, delay = peer.probe_entry(
                entry, message, transport, wave_time, tally
            )
            # Walkers of one wave wait concurrently, so the wave slips by
            # its slowest probe's backoff, not the sum.
            if delay > wave_slip:
                wave_slip = delay
            status = outcome.status
            if status is not ProbeStatus.DELIVERED:
                if defense is not None and status is ProbeStatus.TIMEOUT:
                    defense.record_dead(address)
                continue

            reply = outcome.response
            if not isinstance(reply, QueryReply):
                raise TypeError(f"query probe returned {reply!r}")
            _, num_results, pong, true_results = reply

            # Reset NumRes from this response (Section 2.1); refresh TS.
            if address in residents:
                link_cache.record_results(address, num_results, wave_time)
            elif num_results < 0:
                raise ValueError(f"num_results must be >= 0, got {num_results}")
            else:  # ``LinkCache.record_results``'s rule, on the popped entry
                entry.num_res = num_results
                if wave_time > entry.ts:
                    entry.ts = wave_time
                if num_results > 0:
                    # A productive query-cache entry qualifies for the link
                    # cache ("qualifying entries may be inserted", §2.3).
                    link_cache.insert(entry, replacement, policy_rng)

            results += num_results
            if true_results is not None:  # a lie: the claim is not the count
                falsified = True
                lie += true_results - num_results
            if results >= desired_results and response_time is None:
                # outcome.rtt already folds in any retry waiting.
                response_time = wave_offset + outcome.rtt

            if defense is not None:
                defense.record_answer(address, num_results)

            if harvests is not None and pong.entries:
                harvests.append(pong)

            # Ingest the piggybacked pong: the clones the query cache
            # admits are offered to the link cache too, the same objects.
            shown = pong.entries if defense is None else peer.screen(pong)
            kept = query_cache.add(shown, reset, wave_time)
            if kept:
                link_cache.admit(kept, replacement, wave_time, policy_rng)

        slip += wave_slip
        if width is not None:
            walkers = width.next(results - booked)
            booked = results

    satisfied = results >= desired_results
    return QueryResult(
        satisfied=satisfied,
        results=results,
        duration=waves * spacing + slip,
        response_time=response_time if satisfied else None,
        pool_exhausted=not satisfied and len(query_cache) == 0,
        **{name: getattr(tally, name) for name in ProbeTally.__slots__},
        # The None sentinel keeps falsification-free queries (the
        # overwhelmingly common case) carrying no redundant state.
        honest_results=results + lie if falsified else None,
        honest_satisfied=results + lie >= desired_results if falsified else None,
    )
