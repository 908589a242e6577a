"""Tests for the metrics collector and simulation report."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace
from math import floor, inf, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peer import ProbeTally
from repro.core.search import QueryResult
from repro.metrics.collectors import (
    CacheHealthSample,
    MetricsCollector,
    SimulationReport,
    _Tally,
)


def query_result(
    satisfied=True, probes=5, good=4, dead=1, refused=0, response_time=0.4
):
    return QueryResult(
        satisfied=satisfied,
        results=1 if satisfied else 0,
        probes=probes,
        good_probes=good,
        dead_probes=dead,
        refused_probes=refused,
        duration=probes * 0.2,
        response_time=response_time if satisfied else None,
        pool_exhausted=not satisfied,
    )


def ping(probes=1, **counts):
    """One ping's tally, as ``GuessPeer.probe_entry`` leaves it."""
    tally = ProbeTally()
    tally.probes = probes
    for name, value in counts.items():
        setattr(tally, name, value)
    return tally


class TestQueryAggregation:
    def test_counts_and_means(self):
        collector = MetricsCollector()
        collector.record_query(query_result(probes=10, good=8, dead=2), 1.0)
        collector.record_query(
            query_result(satisfied=False, probes=20, good=15, dead=5), 2.0
        )
        report = collector.build_report()
        assert report.queries == 2
        assert report.satisfied_queries == 1
        assert report.probes_per_query == pytest.approx(15.0)
        assert report.good_probes_per_query == pytest.approx(11.5)
        assert report.dead_probes_per_query == pytest.approx(3.5)
        assert report.unsatisfied_rate == pytest.approx(0.5)
        assert report.satisfaction_rate == pytest.approx(0.5)

    def test_warmup_filters(self):
        collector = MetricsCollector(warmup=10.0)
        collector.record_query(query_result(), 5.0)
        collector.record_query(query_result(), 15.0)
        assert collector.build_report().queries == 1

    def test_mean_response_time_over_satisfied_only(self):
        collector = MetricsCollector()
        collector.record_query(query_result(response_time=1.0), 1.0)
        collector.record_query(query_result(satisfied=False), 1.0)
        collector.record_query(query_result(response_time=3.0), 1.0)
        assert collector.build_report().mean_response_time == pytest.approx(2.0)

    def test_no_queries_report(self):
        report = MetricsCollector().build_report()
        assert report.probes_per_query == 0.0
        assert report.unsatisfied_rate == 0.0
        assert report.mean_response_time is None

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup=-1.0)


class TestPingAccounting:
    def test_ping_fractions(self):
        collector = MetricsCollector()
        collector.record_ping(ping(dead_probes=1), 1.0)
        collector.record_ping(ping(good_probes=1), 1.0)
        collector.record_ping(ping(good_probes=1), 1.0)
        report = collector.build_report()
        assert report.pings_sent == 3
        assert report.dead_pings == 1

    def test_ping_warmup(self):
        collector = MetricsCollector(warmup=10.0)
        collector.record_ping(ping(dead_probes=1), 5.0)
        assert collector.build_report().pings_sent == 0


class TestFaultAndRetryAccounting:
    def lossy_query(self, spurious=2, retries=3, recoveries=1, wrongful=1):
        return replace(
            query_result(probes=10, good=6, dead=4),
            spurious_timeouts=spurious,
            retries=retries,
            retry_recoveries=recoveries,
            wrongful_evictions=wrongful,
        )

    def test_query_fault_sums(self):
        collector = MetricsCollector()
        collector.record_query(self.lossy_query(), 1.0)
        collector.record_query(self.lossy_query(spurious=0, wrongful=0), 2.0)
        report = collector.build_report()
        assert report.spurious_timeout_probes == 2
        assert report.probe_retries == 6
        assert report.retry_recovered_probes == 2
        assert report.wrongful_query_evictions == 1
        assert report.spurious_timeouts_per_query == pytest.approx(1.0)

    def test_recovery_rate_counts_first_attempt_timeouts(self):
        collector = MetricsCollector()
        collector.record_query(self.lossy_query(recoveries=2), 1.0)
        report = collector.build_report()
        # 2 recovered + 4 final dead probes = 6 first-attempt timeouts.
        assert report.retry_recovery_rate == pytest.approx(2 / 6)

    def test_recovery_rate_zero_without_retries(self):
        collector = MetricsCollector()
        collector.record_query(query_result(probes=10, good=6, dead=4), 1.0)
        assert collector.build_report().retry_recovery_rate == 0.0

    def test_ping_fault_accounting(self):
        collector = MetricsCollector()
        collector.record_ping(
            ping(dead_probes=1, spurious_timeouts=1, retries=2, wrongful_evictions=1),
            1.0,
        )
        collector.record_ping(ping(dead_probes=1), 1.0)
        collector.record_ping(
            ping(good_probes=1, retries=1, retry_recoveries=1), 1.0
        )
        report = collector.build_report()
        assert report.spurious_dead_pings == 1
        assert report.ping_retries == 3
        assert report.ping_retry_recoveries == 1
        assert report.wrongful_ping_evictions == 1

    def test_wrongful_evictions_spans_both_paths(self):
        collector = MetricsCollector()
        collector.record_query(self.lossy_query(wrongful=2), 1.0)
        collector.record_ping(
            ping(dead_probes=1, spurious_timeouts=1, wrongful_evictions=1), 1.0
        )
        assert collector.build_report().wrongful_evictions == 3

    def test_transport_totals_passed_through(self):
        collector = MetricsCollector()
        collector.record_transport(
            probes_sent=100, timeouts=20, refusals=5, spurious_timeouts=8
        )
        report = collector.build_report()
        assert report.transport_probes_sent == 100
        assert report.transport_timeouts == 20
        assert report.transport_refusals == 5
        assert report.transport_spurious_timeouts == 8

    def test_results_per_query(self):
        collector = MetricsCollector()
        collector.record_query(query_result(), 1.0)
        collector.record_query(query_result(satisfied=False), 1.0)
        assert collector.build_report().results_per_query == pytest.approx(0.5)


class TestLoadsAndHealth:
    def test_harvest_accumulates(self):
        collector = MetricsCollector()
        collector.harvest_peer(1, 10, 2)
        collector.harvest_peer(2, 5, 0)
        report = collector.build_report()
        assert report.loads == {1: 10, 2: 5}
        assert report.refusals == {1: 2, 2: 0}
        assert report.load_distribution().total == 15

    def test_health_samples_respect_warmup(self):
        collector = MetricsCollector(warmup=100.0)
        early = CacheHealthSample(50.0, 0.5, 5.0, 5.0, 10.0)
        late = CacheHealthSample(150.0, 0.9, 9.0, 9.0, 10.0)
        collector.record_health_sample(early)
        collector.record_health_sample(late)
        report = collector.build_report()
        assert len(report.health_samples) == 1
        assert report.mean_fraction_live == pytest.approx(0.9)
        assert report.mean_absolute_live == pytest.approx(9.0)
        assert report.mean_good_entries == pytest.approx(9.0)
        assert report.mean_cache_fill == pytest.approx(10.0)


class TestResilienceAccounting:
    def test_ping_eviction_split_by_cause(self):
        collector = MetricsCollector()
        collector.record_ping(ping(dead_probes=1, dead_evictions=1), 1.0)
        collector.record_ping(ping(dead_probes=1, dead_evictions=1), 2.0)
        collector.record_ping(ping(refused_probes=1, refusal_evictions=1), 3.0)
        report = collector.build_report()
        assert report.dead_ping_evictions == 2
        assert report.refusal_ping_evictions == 1
        assert report.dead_evictions == 2
        assert report.refusal_evictions == 1

    def test_query_eviction_split_flows_from_results(self):
        collector = MetricsCollector()
        result = replace(
            query_result(),
            dead_evictions=3,
            refusal_evictions=2,
            suppressed_probes=4,
            retries_denied=5,
        )
        collector.record_query(result, 1.0)
        report = collector.build_report()
        assert report.dead_query_evictions == 3
        assert report.refusal_query_evictions == 2
        assert report.suppressed_query_probes == 4
        assert report.query_retries_denied == 5

    def test_suppressed_and_denied_pings(self):
        collector = MetricsCollector()
        collector.record_ping(ping(probes=0, suppressed_probes=1), 1.0)
        collector.record_ping(ping(probes=0, suppressed_probes=1), 2.0)
        collector.record_ping(ping(dead_probes=1, retries_denied=1), 3.0)
        report = collector.build_report()
        assert report.pings_sent == 1
        assert report.suppressed_pings == 2
        assert report.ping_retries_denied == 1
        assert report.suppressed_probes == 2
        assert report.retries_denied == 1

    def test_shed_pings_harvested_from_peers(self):
        collector = MetricsCollector()
        collector.harvest_peer(1, 10, 2, pings_shed=4)
        collector.harvest_peer(2, 5, 0, pings_shed=1)
        assert collector.build_report().pings_shed == 5

    def test_wrongful_evictions_unchanged_by_split(self):
        # The PR-3 spurious-loss counter is orthogonal to the new
        # cause split: a wrongful eviction is also a dead eviction.
        collector = MetricsCollector()
        collector.record_ping(
            ping(
                dead_probes=1,
                spurious_timeouts=1,
                wrongful_evictions=1,
                dead_evictions=1,
            ),
            1.0,
        )
        report = collector.build_report()
        assert report.wrongful_ping_evictions == 1
        assert report.dead_ping_evictions == 1
        assert report.refusal_ping_evictions == 0


class TestSatisfactionWindows:
    def test_disabled_by_default(self):
        collector = MetricsCollector()
        collector.record_query(query_result(), 1.0)
        assert collector.build_report().satisfaction_windows == ()

    def test_windows_count_queries_and_satisfied(self):
        collector = MetricsCollector(satisfaction_window=10.0)
        collector.record_query(query_result(satisfied=True), 1.0)
        collector.record_query(query_result(satisfied=False), 2.0)
        collector.record_query(query_result(satisfied=True), 15.0)
        windows = collector.build_report().satisfaction_windows
        assert windows == ((0.0, 10.0, 2, 1), (10.0, 20.0, 1, 1))

    def test_final_partial_window_flushed(self):
        collector = MetricsCollector(satisfaction_window=10.0)
        collector.record_query(query_result(satisfied=True), 25.0)
        windows = collector.build_report().satisfaction_windows
        assert windows == ((20.0, 30.0, 1, 1),)

    def test_idle_windows_skipped(self):
        collector = MetricsCollector(satisfaction_window=10.0)
        collector.record_query(query_result(), 1.0)
        collector.record_query(query_result(), 55.0)
        windows = collector.build_report().satisfaction_windows
        assert [w[:2] for w in windows] == [(0.0, 10.0), (50.0, 60.0)]

    def test_warmup_filtered(self):
        collector = MetricsCollector(warmup=20.0, satisfaction_window=10.0)
        collector.record_query(query_result(), 5.0)
        collector.record_query(query_result(), 25.0)
        windows = collector.build_report().satisfaction_windows
        assert windows == ((20.0, 30.0, 1, 1),)

    def test_a_difference_only_in_the_windows_changes_the_fingerprint(self):
        # The churn-storm Recovery(s) column reads the windows, so a
        # replay that checks fingerprints must see them.
        collector = MetricsCollector(satisfaction_window=10.0)
        collector.record_query(query_result(satisfied=True), 1.0)
        collector.record_query(query_result(satisfied=False), 15.0)
        report = collector.build_report()
        dropped = replace(
            report, satisfaction_windows=report.satisfaction_windows[:1]
        )
        assert dropped.queries == report.queries
        assert dropped.fingerprint() != report.fingerprint()


def registry_windows(width, warmup, queries):
    """The satisfaction rows the windowed ``MetricsRegistry`` used to give.

    A test-side copy of its ``advance`` and of the collector's flush, over
    ``queries`` as ``(time, satisfied)`` pairs: a window closes once
    ``now >= start + width`` and is kept only if some count changed in
    it, the next one starts at ``floor(now / width) * width``, and the
    last is flushed at the last query time plus ``width``.
    """
    window = float(width)
    levels = {"queries": 0, "satisfied": 0}
    marks = {"queries": 0.0, "satisfied": 0.0}
    snapshots = []
    start = 0.0

    def advance(now):
        nonlocal start
        end = start + window
        if now < end:
            return
        values = {}
        for name, level in levels.items():
            delta = float(level) - marks[name]
            if delta != 0.0:
                values[name] = delta
            marks[name] = float(level)
        if values:
            snapshots.append((start, end, values))
        start = floor(now / window) * window

    last = 0.0
    for time, satisfied in queries:
        if time < warmup:
            continue
        advance(time)
        levels["queries"] += 1
        levels["satisfied"] += 1 if satisfied else 0
        last = time
    advance(last + window)
    return tuple(
        (start, end, int(values.get("queries", 0)), int(values.get("satisfied", 0)))
        for start, end, values in snapshots
        if int(values.get("queries", 0))
    )


@st.composite
def satisfaction_runs(draw):
    """``(width, warmup, queries)`` with query times on, and one ulp either
    side of, window boundaries ``k * width``."""
    width = draw(st.one_of(st.sampled_from([0.1, 1 / 3, 25.0]), st.floats(0.01, 50.0)))
    boundary = st.builds(
        lambda k, side: max(0.0, nextafter(k * width, side * inf) if side else k * width),
        st.integers(0, 30),
        st.sampled_from([-1, 0, 1]),
    )
    anywhere = st.floats(0.0, 30 * width)
    times = sorted(draw(st.lists(st.one_of(boundary, anywhere), max_size=40)))
    warmup = draw(st.one_of(st.just(0.0), boundary, anywhere))
    satisfied = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
    return width, warmup, list(zip(times, satisfied))


@given(satisfaction_runs())
@settings(max_examples=300, deadline=None)
def test_window_rows_follow_the_registry_arithmetic(run):
    width, warmup, queries = run
    collector = MetricsCollector(warmup=warmup, satisfaction_window=width)
    for time, satisfied in queries:
        collector.record_query(query_result(satisfied=satisfied), time)
    windows = collector.build_report().satisfaction_windows
    assert windows == registry_windows(width, warmup, queries)


class TestCountersFeedTheReportByName:
    """A count is declared once: its tally field is a report field."""

    def test_declared_counters_are_report_fields(self):
        tallied = [f.name for f in fields(_Tally)]
        assert len(set(tallied)) == len(tallied) == 47
        counts = {f.name for f in fields(SimulationReport) if f.type == "int"}
        assert set(tallied) == counts
        # A simulation pickles, its collector's tally included.
        collector = MetricsCollector()
        collector.record_death(1.0)
        assert pickle.loads(pickle.dumps(collector))._tally == collector._tally

    def test_every_count_is_fed_on_an_armed_run(self):
        # bench/workloads.py's armed_n500 recipe (all five plans armed,
        # so every counter group is fed) at 100 peers.
        from repro import GuessSimulation, ProtocolParams, SystemParams
        from repro.baselines.gossip import GossipPlan
        from repro.faults.plan import FaultPlan
        from repro.freshness.plan import CacheSizing, FreshnessPlan
        from repro.resilience import (
            ChurnStorm,
            FlashCrowd,
            ResiliencePolicy,
            ScenarioPlan,
        )
        from repro.workload.files import FileCountModel

        sim = GuessSimulation(
            SystemParams(network_size=100),
            ProtocolParams(cache_size=30, probe_retries=2),
            seed=7,
            file_model=FileCountModel(tail_p=0.0),
            faults=FaultPlan(loss_rate=0.05),
            scenarios=ScenarioPlan(
                storms=(ChurnStorm(start=40.0, width=10.0, fraction=0.4),),
                crowds=(FlashCrowd(start=40.0, end=100.0, multiplier=3.0),),
            ),
            resilience=ResiliencePolicy.all_on(),
            satisfaction_window=25.0,
            gossip=GossipPlan(fanout=1, ttl=2),
            freshness=FreshnessPlan(
                notify_budget=3,
                depth=2,
                sizing=CacheSizing(policy="power-law", max_capacity=120),
            ),
        )
        sim.run(120.0)
        report = sim.report()
        fed = {f.name for f in fields(_Tally) if getattr(report, f.name)}
        # Each group saw traffic: queries, pings, churn, retries, gossip,
        # freshness, and the wire totals absorbed at report time.
        assert {
            "queries", "pings_sent", "dead_pings", "deaths", "ping_retries",
            "gossip_pushes", "gossip_imports", "stale_dead_pings",
            "freshness_notices", "freshness_purges", "transport_probes_sent",
        } <= fed
        assert report.transport_probes_sent == sim.transport.probes_sent
        assert report.satisfaction_windows
