"""The adaptive and selfish searches are width rules over the one probe loop.

Two halves: literals frozen from the deleted adaptive loop (recorded at
commit 3b8d44f, before it was removed) that the unified loop reproduces
when nothing is armed, and the mechanisms the copy never had — stale
accounting, retries, the honest channel, breakers, the defense — which
both extension searches now inherit from ``execute_query``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.search import QueryResult
from repro.errors import ConfigError
from repro.experiments import ablations
from repro.experiments.profiles import get_profile
from repro.extensions.adaptive_search import (
    EscalatingWidth,
    execute_adaptive_query,
)
from repro.extensions.detection import PongDefense
from repro.extensions.selfish import execute_selfish_query
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.transport import Transport
from repro.resilience.policy import ResiliencePolicy
from repro.sim.rng import RngRegistry
from tests.conftest import make_entry
from tests.core.helpers import make_peer
from tests.core.test_faulty_reporter import make_faulty_reporter
from tests.extensions.test_adaptive_search import build_network


def two_owner_network():
    """The ``test_dry_run_resets_on_success`` network (owners 5 and 25)."""
    protocol = ProtocolParams(cache_size=200, probe_spacing=0.2)
    querier = make_peer(0, protocol=protocol, library=frozenset())
    transport = Transport()
    transport.register(0, querier)
    for i in range(1, 30):
        library = frozenset({42}) if i in (5, 25) else frozenset()
        transport.register(i, make_peer(i, protocol=protocol, library=library))
        querier.link_cache.insert(
            make_entry(i), querier.policies.replacement, querier._policy_rng
        )
    return querier, transport


def plain(**fields) -> QueryResult:
    """A result whose armed-only fields all read "nothing happened"."""
    return QueryResult(dead_probes=0, refused_probes=0, **fields)


FROZEN = {
    "rare item": (
        lambda: build_network(60, owner_files=1),
        dict(initial_walkers=1, escalation_period=3, max_walkers=16),
        plain(
            satisfied=True, results=1, probes=61, good_probes=61,
            duration=2.6, response_time=2.45, pool_exhausted=False,
        ),
    ),
    "popular item": (
        lambda: build_network(0, owner_files=10_000),
        dict(initial_walkers=1, escalation_period=3),
        plain(
            satisfied=True, results=1, probes=1, good_probes=1,
            duration=0.2, response_time=0.05, pool_exhausted=False,
        ),
    ),
    "no owner": (
        lambda: build_network(100),
        dict(initial_walkers=1, escalation_period=1, max_walkers=4),
        plain(
            satisfied=False, results=0, probes=100, good_probes=100,
            duration=5.4, response_time=None, pool_exhausted=True,
        ),
    ),
    "two owners": (
        two_owner_network,
        dict(desired_results=2, escalation_period=2, max_walkers=8),
        plain(
            satisfied=True, results=2, probes=14, good_probes=14,
            duration=1.2000000000000002, response_time=1.05,
            pool_exhausted=False,
        ),
    ),
}


class TestFrozenFromTheDeletedLoop:
    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_unarmed_result_is_exactly_the_copy_s(self, case):
        build, knobs, expected = FROZEN[case]
        querier, transport = build()
        result = execute_adaptive_query(
            querier, 42, transport, 0.0, rng=random.Random(77), **knobs
        )
        assert result == expected

    def test_smoke_ablation_rows(self):
        result = ablations.run_adaptive_search_ablation(get_profile("smoke"))
        assert result.rows == (
            ("serial (k=1)", 58.08, 6.5875, 27.499999999999993),
            ("fixed k=10", 64.86666666666666, 0.6828125, 3.3799999999999986),
            ("adaptive", 60.406666666666666, 1.38125, 3.25),
        )


class TestEscalatingWidth:
    def test_doubles_after_each_dry_period_up_to_the_ceiling(self):
        rule = EscalatingWidth(1, ceiling=5, period=2)
        assert [rule.next(0) for _ in range(7)] == [1, 2, 2, 4, 4, 5, 5]

    def test_a_productive_wave_restarts_the_dry_count_not_the_width(self):
        rule = EscalatingWidth(1, ceiling=8, period=2)
        assert [rule.next(g) for g in (0, 0, 0, 1, 0, 0)] == [1, 2, 2, 2, 2, 4]

    def test_ceiling_equal_to_initial_is_a_constant(self):
        rule = EscalatingWidth(10, ceiling=10)
        assert {rule.next(g) for g in (0, 0, 3, 0, 0, 0)} == {10}

    def test_rejects_bad_knobs(self):
        for knobs in ((0, 4, 1), (4, 2, 1), (1, 4, 0)):
            with pytest.raises(ConfigError):
                EscalatingWidth(*knobs)


def network(protocol=None, resilience=None, faults=None):
    """Querier 0 caching peers 1..8, none of which holds file 42."""
    protocol = protocol or ProtocolParams(cache_size=50, probe_spacing=0.2)
    querier = make_peer(
        0, protocol=protocol, library=frozenset(), resilience=resilience
    )
    transport = Transport(faults=faults)
    transport.register(0, querier)
    for i in range(1, 9):
        transport.register(
            i, make_peer(i, protocol=protocol, library=frozenset())
        )
        querier.link_cache.insert(
            make_entry(i), querier.policies.replacement, querier._policy_rng
        )
    return querier, transport


@pytest.mark.parametrize("search", [execute_adaptive_query, execute_selfish_query])
class TestInheritedFromTheOneLoop:
    """Each of these read 0 / ``None`` on the adaptive copy."""

    def test_departed_target_is_booked_stale(self, search):
        querier, transport = network()
        transport.unregister(3, 5.0)  # cached at t=0, gone at t=5
        result = search(querier, 42, transport, 10.0, rng=random.Random(1))
        assert result.dead_probes == result.stale_dead_probes == 1
        assert result.dead_evictions == 1
        assert 3 not in querier.link_cache

    def test_retries_over_a_lossy_link_slip_the_schedule(self, search):
        protocol = ProtocolParams(
            cache_size=50, probe_spacing=0.2, probe_retries=2
        )
        faults = FaultInjector(FaultPlan(loss_rate=0.6), RngRegistry(3))
        querier, transport = network(protocol=protocol, faults=faults)
        result = search(querier, 42, transport, 0.0, rng=random.Random(1))
        assert result.retries > 0
        assert result.retry_recoveries > 0
        clean, clean_transport = network()
        unslipped = search(clean, 42, clean_transport, 0.0, rng=random.Random(1))
        assert result.duration > unslipped.duration

    def test_a_faulty_reporter_opens_the_honest_channel(self, search):
        querier, transport = network()
        transport.register(9, make_faulty_reporter(9, report_offset=3))
        querier.link_cache.insert(
            make_entry(9), querier.policies.replacement, querier._policy_rng
        )
        result = search(
            querier, 42, transport, 0.0, rng=random.Random(1),
            desired_results=50,  # never satisfied: the liar is reached
        )
        assert result.results == 3
        assert result.honest_results == 0
        assert result.honest_satisfied is False

    def test_an_open_breaker_suppresses_the_probe(self, search):
        querier, transport = network(resilience=ResiliencePolicy.all_on())
        for _ in range(3):
            querier.breakers.record_refusal(4, 0.0)
        result = search(querier, 42, transport, 1.0, rng=random.Random(1))
        assert result.suppressed_probes == 1
        assert result.probes == 7
        assert transport._directory[4].probes_received == 0
        assert 4 in querier.link_cache  # spared, not evicted

    def test_a_blacklisted_entry_is_never_probed(self, search):
        querier, transport = network()
        querier.defense = PongDefense()
        querier.defense._blacklist.add(4)
        result = search(querier, 42, transport, 0.0, rng=random.Random(1))
        assert result.probes == 7
        assert transport._directory[4].probes_received == 0
        assert 4 not in querier.link_cache
