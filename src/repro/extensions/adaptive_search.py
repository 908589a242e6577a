"""Adaptive k-parallel probing (paper §6.2, left to future work).

    "A more sophisticated solution may adaptively increase k if
    successive sets of parallel probes are unsuccessful."

:func:`execute_adaptive_query` reuses the core candidate-pool machinery
but escalates the wave width: the query starts serial (or at
``initial_walkers``), and every ``escalation_period`` consecutive
result-free waves the width doubles, up to ``max_walkers``.  Popular
items keep the serial protocol's minimal cost; rare items trade bounded
extra probes for far better worst-case response time.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.entry import CacheEntry
from repro.core.messages import QueryReply
from repro.core.peer import GuessPeer
from repro.core.query_cache import QueryCache
from repro.core.search import CandidatePool, QueryResult
from repro.errors import ConfigError
from repro.network.transport import ProbeStatus, Transport


def execute_adaptive_query(
    peer: GuessPeer,
    target_file: int,
    transport: Transport,
    now: float,
    *,
    rng: random.Random,
    desired_results: int = 1,
    initial_walkers: int = 1,
    max_walkers: int = 32,
    escalation_period: int = 5,
) -> QueryResult:
    """Run one query with adaptively escalating parallelism.

    Args:
        initial_walkers: wave width at query start.
        max_walkers: escalation ceiling.
        escalation_period: consecutive result-free waves before the wave
            width doubles.

    Returns:
        A :class:`~repro.core.search.QueryResult`; ``duration`` reflects
        the escalated wave schedule.
    """
    if initial_walkers < 1:
        raise ConfigError(f"initial_walkers must be >= 1, got {initial_walkers}")
    if max_walkers < initial_walkers:
        raise ConfigError(
            f"max_walkers {max_walkers} must be >= initial_walkers "
            f"{initial_walkers}"
        )
    if escalation_period < 1:
        raise ConfigError(
            f"escalation_period must be >= 1, got {escalation_period}"
        )

    protocol = peer.protocol
    policies = peer.policies
    spacing = protocol.probe_spacing

    pool = CandidatePool(policies.query_probe, rng, now)
    link_entries = peer.link_cache.entries()
    for entry in link_entries:
        pool.add(entry)
    query_cache = QueryCache(
        owner=peer.address,
        excluded={entry.address for entry in link_entries},
    )

    message = peer.query_message(target_file)
    results = 0
    good = dead = refused = 0
    probes = 0
    waves = 0
    walkers = initial_walkers
    dry_waves = 0
    response_time: Optional[float] = None

    while results < desired_results:
        wave: list[CacheEntry] = []
        while len(wave) < walkers:
            entry = pool.pop()
            if entry is None:
                break
            wave.append(entry)
        if not wave:
            break
        wave_time = now + waves * spacing
        waves += 1
        wave_results = 0
        for entry in wave:
            address = entry.address
            query_cache.mark_seen(address)
            outcome = transport.probe(peer.address, address, message, wave_time)
            probes += 1
            if outcome.status is ProbeStatus.TIMEOUT:
                dead += 1
                peer.link_cache.evict(address)
                continue
            if outcome.status is ProbeStatus.REFUSED:
                refused += 1
                if not protocol.do_backoff:
                    peer.link_cache.evict(address)
                continue
            good += 1
            reply = outcome.response
            if not isinstance(reply, QueryReply):
                raise TypeError(f"query probe returned {reply!r}")
            entry.record_results(reply.num_results, wave_time)
            peer.link_cache.record_results(address, reply.num_results, wave_time)
            if reply.num_results > 0 and address not in peer.link_cache:
                peer.offer_entry_to_link_cache(entry, wave_time)
            wave_results += reply.num_results
            results += reply.num_results
            if results >= desired_results and response_time is None:
                response_time = (waves - 1) * spacing + outcome.rtt
            reset = policies.reset_num_results
            for shared in reply.pong.entries:
                if query_cache.was_seen(shared.address):
                    continue
                imported = shared.copy_for_import(reset, wave_time)
                if query_cache.add(imported):
                    pool.add(imported)
                    peer.offer_entry_to_link_cache(imported, wave_time)

        # Escalation: double the wave width after a dry spell.
        if wave_results == 0:
            dry_waves += 1
            if dry_waves >= escalation_period and walkers < max_walkers:
                walkers = min(max_walkers, walkers * 2)
                dry_waves = 0
        else:
            dry_waves = 0

    satisfied = results >= desired_results
    query_cache.clear()
    return QueryResult(
        satisfied=satisfied,
        results=results,
        probes=probes,
        good_probes=good,
        dead_probes=dead,
        refused_probes=refused,
        duration=waves * spacing,
        response_time=response_time if satisfied else None,
        pool_exhausted=not satisfied and len(pool) == 0,
    )
