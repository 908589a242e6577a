"""Unit tests for the metrics registry instruments and windowing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.observe.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowSnapshot,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        hist = Histogram("h", bounds=(0.1, 0.2, 0.5))
        for value in (0.05, 0.1, 0.15, 0.2, 0.4, 9.0):
            hist.observe(value)
        # bounds are inclusive: 0.1 lands in the first bucket, 0.2 in
        # the second, and 9.0 overflows.
        assert hist.bucket_counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.sum == pytest.approx(9.9)

    def test_mean_empty_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_mean(self):
        hist = Histogram("h")
        hist.observe(0.1)
        hist.observe(0.3)
        assert hist.mean == pytest.approx(0.2)

    def test_quantile_reports_bucket_upper_bound(self):
        hist = Histogram("h", bounds=(0.1, 0.2, 0.5))
        for value in (0.05, 0.05, 0.15, 0.45):
            hist.observe(value)
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(1.0) == 0.5

    def test_quantile_overflow_clamps_to_last_bound(self):
        hist = Histogram("h", bounds=(0.1, 0.2))
        hist.observe(99.0)
        assert hist.quantile(1.0) == 0.2

    def test_quantile_empty_is_zero(self):
        assert Histogram("h").quantile(0.9) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    @pytest.mark.parametrize("bounds", [(), (0.2, 0.1), (0.1, 0.1)])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ConfigError):
            Histogram("h", bounds=bounds)

    def test_default_buckets_strictly_increasing(self):
        assert all(
            a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        )


class TestGetOrCreate:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigError):
            registry.gauge("a")
        with pytest.raises(ConfigError):
            registry.histogram("a")

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.gauge("a")
        assert registry.names() == ["a", "z"]


class TestLifetimeSnapshot:
    def test_totals_by_sorted_name(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(3)
        registry.gauge("a").set(1.5)
        registry.histogram("c").observe(0.1)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        assert snapshot == {"a": 1.5, "b": 3.0, "c": 1.0}


class TestWindowing:
    def test_windowless_advance_is_noop(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.advance(1e9)
        assert registry.window_snapshots == ()

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry(window=0.0)

    def test_window_closes_with_deltas(self):
        registry = MetricsRegistry(window=10.0)
        registry.counter("a").inc(2)
        registry.advance(5.0)  # still inside [0, 10): nothing closes
        assert registry.window_snapshots == ()
        registry.counter("a").inc(3)
        registry.advance(12.0)
        (snap,) = registry.window_snapshots
        assert (snap.start, snap.end) == (0.0, 10.0)
        assert snap.values == {"a": 5.0}

    def test_counter_deltas_reset_per_window(self):
        registry = MetricsRegistry(window=10.0)
        registry.counter("a").inc(5)
        registry.advance(10.0)
        registry.counter("a").inc(1)
        registry.advance(20.0)
        first, second = registry.window_snapshots
        assert first.values == {"a": 5.0}
        assert second.values == {"a": 1.0}

    def test_gauge_reports_level_not_delta(self):
        registry = MetricsRegistry(window=10.0)
        registry.gauge("g").set(7.0)
        registry.advance(10.0)
        registry.advance(20.0)
        first, second = registry.window_snapshots
        assert first.values == {"g": 7.0}
        assert second.values == {"g": 7.0}

    def test_empty_windows_skipped(self):
        registry = MetricsRegistry(window=10.0)
        registry.counter("a").inc()
        registry.advance(10.0)
        # Nothing changed for many windows; hosts advance() before they
        # record, so the next activity lands in the window containing
        # its timestamp, with no all-zero spam in between.
        registry.advance(95.0)
        registry.counter("a").inc()
        registry.advance(105.0)
        snaps = registry.window_snapshots
        assert len(snaps) == 2
        assert (snaps[1].start, snaps[1].end) == (90.0, 100.0)
        assert snaps[1].values == {"a": 1.0}

    def test_stale_timestamps_ignored(self):
        registry = MetricsRegistry(window=10.0)
        registry.counter("a").inc()
        registry.advance(25.0)
        before = registry.window_snapshots
        registry.advance(3.0)  # earlier than the open window: no-op
        assert registry.window_snapshots == before


class TestWindowSnapshot:
    def test_as_dict_sorted(self):
        snap = WindowSnapshot(start=0.0, end=10.0, values={"b": 1.0, "a": 2.0})
        rendered = snap.as_dict()
        assert list(rendered["values"]) == ["a", "b"]
        assert rendered["start"] == 0.0
        assert rendered["end"] == 10.0


class TestSchedulerHygieneGauges:
    """``GuessSimulation.report()`` exports the engine's queue depth
    into the registry."""

    def test_report_sets_engine_gauges(self):
        from repro.core.network_sim import GuessSimulation
        from repro.core.params import ProtocolParams, SystemParams
        from repro.observe.plan import ObservationPlan

        sim = GuessSimulation(
            SystemParams(network_size=40),
            ProtocolParams(cache_size=10),
            seed=5,
            observe=ObservationPlan(registry=True),
        )
        sim.run(60.0)
        sim.report()
        totals = sim.metrics_registry.snapshot()
        assert totals["engine_pending"] == sim.engine.pending > 0
