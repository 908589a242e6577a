"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)

    def test_schedule_after_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_schedule_at_now_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run_until(0.0)
        assert fired == [True]

    def test_schedule_returns_nothing(self):
        """A scheduled event always fires: there is no handle to revoke it."""
        sim = Simulator()
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_after(1.0, lambda: None) is None
        assert sim.pending == 2

    def test_pending_counts_scheduled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2


class TestExecutionOrder:
    def test_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run_until(10.0)
        assert order == [1, 2, 3]

    def test_same_time_priority_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("q"), priority=EventPriority.QUERY)
        sim.schedule(1.0, lambda: order.append("d"), priority=EventPriority.DEATH)
        sim.schedule(1.0, lambda: order.append("b"), priority=EventPriority.BIRTH)
        sim.run_until(1.0)
        assert order == ["d", "b", "q"]

    def test_same_time_same_priority_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run_until(1.0)
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [4.5]

    def test_clock_lands_on_horizon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_events_scheduled_during_run_fire_in_same_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(2.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run_until(5.0)
        assert order == ["first", "nested"]

    def test_events_beyond_horizon_wait(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run_until(4.0)
        assert fired == []
        sim.run_until(5.0)
        assert fired == [True]


class TestRunSemantics:
    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_until_returns_executed_count(self):
        sim = Simulator()
        for t in (1.0, 2.0, 8.0):
            sim.schedule(t, lambda: None)
        assert sim.run_until(5.0) == 2
        assert sim.run_until(10.0) == 1

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run_until(10.0)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run_until(2.0)
        assert len(errors) == 1

    def test_step_fires_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_step_on_empty_heap(self):
        assert Simulator().step() is False

    def test_run_all_drains_heap(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run_all() == 3
        assert sim.pending == 0

    def test_run_all_max_events(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run_all(max_events=2) == 2

    def test_events_executed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.events_executed == 1
