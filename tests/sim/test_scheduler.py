"""Unit tests for the engine's event queue (:mod:`repro.sim.wheel`)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.wheel import HeapScheduler, make_scheduler


def make_item(time, priority=0, seq=None):
    """A queue item as the engine pushes it (seq auto-unique)."""
    if seq is None:
        make_item.counter += 1
        seq = make_item.counter
    return (time, priority, seq, lambda: None, "", ())


make_item.counter = 0


def drain(sched):
    """Pop everything (no horizon) and return the items in order."""
    out = []
    while True:
        item = sched.pop_next(math.inf)
        if item is None:
            return out
        out.append(item)


class TestMakeScheduler:
    def test_heap_by_name(self):
        assert make_scheduler("heap").name == "heap"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler("calendar")


class TestOrderingContract:
    def test_time_order(self):
        sched = HeapScheduler()
        # Later items carry the more urgent priority: time still dominates.
        items = [make_item(t, priority=5 - int(t)) for t in (5.0, 1.0, 3.0, 2.0, 4.0)]
        for item in items:
            sched.push(item)
        assert [item[0] for item in drain(sched)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_priority_then_seq(self):
        sched = HeapScheduler()
        sched.push(make_item(1.0, priority=2, seq=0))
        sched.push(make_item(1.0, priority=0, seq=1))
        sched.push(make_item(1.0, priority=0, seq=2))
        sched.push(make_item(1.0, priority=1, seq=3))
        popped = drain(sched)
        assert [item[1:3] for item in popped] == [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 0),
        ]

    def test_horizon_respected(self):
        sched = HeapScheduler()
        sched.push(make_item(1.0))
        sched.push(make_item(10.0))
        assert sched.pop_next(5.0)[0] == 1.0
        assert sched.pop_next(5.0) is None
        assert len(sched) == 1
        assert sched.pop_next(10.0)[0] == 10.0

    def test_empty_pop_returns_none(self):
        assert HeapScheduler().pop_next(math.inf) is None

    def test_len_tracks_pushes_and_pops(self):
        sched = HeapScheduler()
        for t in (1.0, 2.0, 3.0):
            sched.push(make_item(t))
        assert len(sched) == 3
        sched.pop_next(math.inf)
        assert len(sched) == 2


class TestEngineScheduler:
    def test_engine_reports_heap(self):
        assert Simulator().scheduler == "heap"
