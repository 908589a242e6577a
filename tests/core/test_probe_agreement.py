"""A maintenance ping and a query probe agree on what an outcome does.

Paper §2.2 and §2.3 treat the two probe kinds alike as far as the
prober's own link cache goes: a pointer that does not answer is dead and
is evicted, and a refusal is overload (§6.3).  Each row below sets up one
outcome on two identical simulations, pings the one cached entry on the
first and runs a one-candidate query on the second, then compares what
each left behind: the link cache, the breaker, the retry budget and the
per-probe counts.
"""

from __future__ import annotations

import pytest

from repro.core.entry import CacheEntry
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.core.search import execute_query
from repro.faults.plan import FaultPlan
from repro.resilience.breaker import FAILURE_THRESHOLD
from repro.resilience.budget import CAPACITY
from repro.resilience.policy import ResiliencePolicy

NOW = 1.0
DEPARTED = 0.5

#: ``(name, arms breakers, do_backoff, setup)``; setup is one of
#: "delivered", "refused", "stale", "fresh", "lossy", "cut", "suppressed".
#: "cut" drops the first send only: a wire that heals before a retry.
OUTCOMES = [
    ("delivered", False, True, "delivered"),
    ("refused-breakers", True, True, "refused"),
    ("refused-backoff", False, True, "refused"),
    ("refused-evict", False, False, "refused"),
    ("timeout-stale", False, True, "stale"),
    ("timeout-fresh", False, True, "fresh"),
    ("timeout-spurious", False, True, "lossy"),
    ("timeout-then-answer", False, True, "cut"),
    ("suppressed", True, True, "suppressed"),
]

#: ``(name, probe_retries, arms a retry budget)``.  Breakers and budgets
#: are armed together, as one :class:`ResiliencePolicy`: a row that arms
#: either runs with both.
RETRIES = [("no-retry", 0, False), ("retry", 2, False), ("budget", 2, True)]

#: The ping channel's report fields, in the order of the query's
#: :class:`~repro.core.search.QueryResult` fields below.
PING_COUNTS = (
    "pings_sent", "dead_pings", "stale_dead_pings", "spurious_dead_pings",
    "ping_retries", "ping_retry_recoveries", "wrongful_ping_evictions",
    "dead_ping_evictions", "refusal_ping_evictions", "suppressed_pings",
    "ping_retries_denied",
)
QUERY_COUNTS = (
    "probes", "dead_probes", "stale_dead_probes", "spurious_timeouts",
    "retries", "retry_recoveries", "wrongful_evictions", "dead_evictions",
    "refusal_evictions", "suppressed_probes", "retries_denied",
)


class DropsUntil:
    """An injector double: every send made before ``heals`` is lost."""

    def __init__(self, heals):
        self.heals = heals

    def should_drop(self, src, dst, time):
        return time < self.heals


def arrange(breakers, do_backoff, setup, retries, budget):
    """A 20-peer simulation whose prober caches exactly one entry."""
    resilience = ResiliencePolicy.all_on() if breakers or budget else None
    sim = GuessSimulation(
        SystemParams(network_size=20, query_rate=0.0),
        ProtocolParams(cache_size=10, probe_retries=retries, do_backoff=do_backoff),
        seed=3,
        health_sample_interval=None,
        faults=FaultPlan(loss_rate=1.0) if setup == "lossy" else None,
        resilience=resilience,
    )
    if setup == "cut":
        sim.transport._faults = DropsUntil(NOW + 0.1)
    prober, target = sorted(
        (p for p in sim.live_good_peers if p.death_time > 100.0),
        key=lambda p: p.address,
    )[:2]
    for peer in (prober, target):
        for address in list(peer.link_cache.addresses()):
            peer.link_cache.evict(address)
    target.library = frozenset()  # an empty pong, no results
    born = DEPARTED + 0.3 if setup == "fresh" else 0.0
    entry = CacheEntry(address=target.address, ts=0.0, num_files=5, born=born)
    prober.link_cache.insert(
        entry, prober.policies.replacement, prober._policy_rng
    )
    if budget:
        # One token left: the first re-send spends it, the second is
        # denied (a token takes seconds to mint; the probe takes less).
        for _ in range(CAPACITY - 1):
            assert prober.retry_budget.try_spend(0.0)
    if setup == "refused":
        while target._limiter.try_record(NOW):
            pass
        if breakers:
            # The probe's refusal is the one that trips the breaker.
            for _ in range(FAILURE_THRESHOLD - 1):
                prober.breakers.record_refusal(target.address, 0.0)
    elif setup in ("stale", "fresh"):
        sim.transport.unregister(target.address, DEPARTED)
    elif setup == "suppressed":
        for _ in range(FAILURE_THRESHOLD):
            prober.breakers.record_refusal(target.address, 0.0)
    return sim, prober, target.address


def left_behind(prober, address, counts):
    breakers = prober.breakers
    budget = prober.retry_budget
    return (
        sorted((e.address, e.ts, e.num_res) for e in prober.link_cache.iter_entries()),
        None if breakers is None else (len(breakers), breakers.state_of(address)),
        None if budget is None else budget.denied,
        counts,
    )


@pytest.mark.parametrize("retry_name, retries, budget", RETRIES)
@pytest.mark.parametrize("name, breakers, do_backoff, setup", OUTCOMES)
def test_a_ping_and_a_query_probe_agree(
    name, breakers, do_backoff, setup, retry_name, retries, budget
):
    sim, prober, address = arrange(breakers, do_backoff, setup, retries, budget)
    sim._do_ping(prober, NOW)
    report = sim.report()
    pinged = left_behind(
        prober, address, tuple(getattr(report, f) for f in PING_COUNTS)
    )

    sim, prober, address = arrange(breakers, do_backoff, setup, retries, budget)
    result = execute_query(
        prober, 7, sim.transport, NOW, rng=sim.rng.stream("policies")
    )
    queried = left_behind(
        prober, address, tuple(getattr(result, f) for f in QUERY_COUNTS)
    )

    assert pinged == queried
    # Each row reaches the outcome it is named for.
    counts = dict(zip(QUERY_COUNTS, queried[3]))
    assert counts["probes"] == (setup != "suppressed")
    assert counts["suppressed_probes"] == (setup == "suppressed")
    recovered = setup == "cut" and retries > 0
    dead = setup in ("stale", "fresh", "lossy") or (setup == "cut" and not retries)
    assert counts["dead_probes"] == dead
    assert counts["stale_dead_probes"] == (setup == "stale")
    assert counts["spurious_timeouts"] == (setup == "lossy" or dead and setup == "cut")
    assert result.refused_probes == (setup == "refused")
    assert counts["retry_recoveries"] == recovered
    assert counts["retries_denied"] == (dead and budget)
    assert counts["retries"] == (
        1 if recovered or dead and budget else retries if dead else 0
    )
