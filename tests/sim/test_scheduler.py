"""Unit tests for the engine's event queue (:mod:`repro.sim.wheel`)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.wheel import HeapScheduler, make_scheduler


def make_item(time, priority=0, seq=None, queue=None):
    """A queue item with a real EventHandle (seq auto-unique)."""
    if seq is None:
        make_item.counter += 1
        seq = make_item.counter
    handle = EventHandle(time, priority, seq, lambda: None, "", (), queue)
    return (time, priority, seq, handle)


make_item.counter = 0


def drain(sched):
    """Pop everything (no horizon) and return the handles in order."""
    out = []
    while True:
        handle = sched.pop_next(math.inf)
        if handle is None:
            return out
        out.append(handle)


class TestMakeScheduler:
    def test_heap_by_name(self):
        assert make_scheduler("heap").name == "heap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler("calendar")


class TestOrderingContract:
    def test_time_order(self):
        sched = HeapScheduler()
        items = [make_item(t) for t in (5.0, 1.0, 3.0, 2.0, 4.0)]
        for item in items:
            sched.push(item)
        assert [h.time for h in drain(sched)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_priority_then_seq(self):
        sched = HeapScheduler()
        sched.push(make_item(1.0, priority=2, seq=0))
        sched.push(make_item(1.0, priority=0, seq=1))
        sched.push(make_item(1.0, priority=0, seq=2))
        sched.push(make_item(1.0, priority=1, seq=3))
        popped = drain(sched)
        assert [(h.priority, h.seq) for h in popped] == [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 0),
        ]

    def test_horizon_respected(self):
        sched = HeapScheduler()
        sched.push(make_item(1.0))
        sched.push(make_item(10.0))
        assert sched.pop_next(5.0).time == 1.0
        assert sched.pop_next(5.0) is None
        assert len(sched) == 1
        assert sched.pop_next(10.0).time == 10.0

    def test_empty_pop_returns_none(self):
        assert HeapScheduler().pop_next(math.inf) is None

    def test_len_tracks_pushes_and_pops(self):
        sched = HeapScheduler()
        for t in (1.0, 2.0, 3.0):
            sched.push(make_item(t))
        assert len(sched) == 3
        sched.pop_next(math.inf)
        assert len(sched) == 2


class TestTombstoneHygiene:
    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        kill = sim.schedule(2.0, lambda: fired.append("kill"))
        assert kill.cancel()
        sim.run_until(5.0)
        assert fired == ["keep"]
        assert keep.active is False

    def test_mass_cancellation_does_not_grow_queue_unboundedly(self):
        """The satellite-3 guarantee: tombstones trigger compaction.

        Schedule/cancel in waves while keeping a bounded live set; the
        queue (live + tombstones) must stay O(live), not O(total ever
        scheduled).
        """
        sim = Simulator()
        total_scheduled = 0
        for wave in range(200):
            handles = [
                sim.schedule(10.0 + wave + i * 0.001, lambda: None)
                for i in range(100)
            ]
            total_scheduled += len(handles)
            for handle in handles:
                handle.cancel()
            # Queue never holds more than ~2x the biggest live wave.
            assert sim.pending <= 250, (wave, sim.pending)
        assert total_scheduled == 20_000
        assert sim.compactions > 0
        assert sim.tombstones <= sim.pending
        assert 0.0 <= sim.cancelled_ratio <= 1.0

    def test_cancelled_ratio_reports_fraction(self):
        sim = Simulator()
        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        victim = sim.schedule(99.0, lambda: None)
        victim.cancel()
        assert sim.pending == 11
        assert sim.tombstones == 1
        assert sim.cancelled_ratio == pytest.approx(1 / 11)
        del keep

    def test_compaction_preserves_survivors(self):
        sim = Simulator()
        fired = []
        for i in range(300):
            handle = sim.schedule(
                1.0 + i * 0.01, lambda i=i: fired.append(i)
            )
            if i % 3 != 0:
                handle.cancel()  # cancel 2/3 -> forces compaction passes
        assert sim.compactions > 0
        sim.run_until(10.0)
        assert fired == [i for i in range(300) if i % 3 == 0]


class TestEngineScheduler:
    def test_engine_reports_heap(self):
        assert Simulator().scheduler == "heap"
