"""The engine's trace-hash determinism sanitizer."""

from __future__ import annotations

from repro.sim.engine import Engine, Simulator, TraceHasher
from repro.sim.events import EventPriority


def build_run(trace_hash: bool = True) -> Simulator:
    """A small fixed schedule touching several priorities and labels."""
    sim = Simulator(trace_hash=trace_hash)
    sim.schedule(1.0, lambda: None, priority=EventPriority.DEATH, label="death")
    sim.schedule(1.0, lambda: None, priority=EventPriority.BIRTH, label="birth")
    sim.schedule(2.5, lambda: None, label="ping")
    sim.schedule(4.0, lambda: None, priority=EventPriority.QUERY, label="burst")
    return sim


class TestTraceHasher:
    def test_digest_is_a_stable_snapshot(self):
        hasher = TraceHasher()
        hasher.fold(1.0, 0, 0, "a")
        first = hasher.digest()
        assert hasher.digest() == first  # non-destructive
        hasher.fold(2.0, 1, 1, "b")
        assert hasher.digest() != first

    def test_one_ulp_time_difference_changes_digest(self):
        base, nudged = TraceHasher(), TraceHasher()
        t = 1.0
        base.fold(t, 0, 0, "x")
        import math

        nudged.fold(math.nextafter(t, 2.0), 0, 0, "x")
        assert base.digest() != nudged.digest()


class TestEngineTraceHash:
    def test_engine_is_the_simulator(self):
        assert Engine is Simulator

    def test_disabled_by_default(self):
        sim = build_run(trace_hash=False)
        sim.run_until(10.0)
        assert sim.trace_digest is None

    def test_same_schedule_same_digest(self):
        a, b = build_run(), build_run()
        a.run_until(10.0)
        b.run_until(10.0)
        assert a.trace_digest == b.trace_digest

    def test_digest_independent_of_driving_style(self):
        """step()-driving and run_until()-driving fold the same stream."""
        stepped, batched = build_run(), build_run()
        while stepped.step():
            pass
        batched.run_until(10.0)
        assert stepped.trace_digest == batched.trace_digest

    def test_label_divergence_changes_digest(self):
        a, b = Simulator(trace_hash=True), Simulator(trace_hash=True)
        a.schedule(1.0, lambda: None, label="ping")
        b.schedule(1.0, lambda: None, label="pong")
        a.run_until(2.0)
        b.run_until(2.0)
        assert a.trace_digest != b.trace_digest

    def test_scheduling_order_is_part_of_the_trace(self):
        """Same-(time, priority) events are sequenced by scheduling order."""
        a, b = Simulator(trace_hash=True), Simulator(trace_hash=True)
        a.schedule(1.0, lambda: None, label="first")
        a.schedule(1.0, lambda: None, label="second")
        b.schedule(1.0, lambda: None, label="second")
        b.schedule(1.0, lambda: None, label="first")
        a.run_until(2.0)
        b.run_until(2.0)
        assert a.trace_digest != b.trace_digest
