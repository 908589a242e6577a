"""Property-based tests for the discrete-event engine."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
priorities = st.sampled_from(list(EventPriority))


@given(st.lists(st.tuples(times, priorities), max_size=60))
@settings(max_examples=60)
def test_events_fire_in_sort_key_order(schedule):
    """Whatever the scheduling order, events fire by (time, priority, seq)."""
    sim = Simulator()
    fired = []
    for seq, (time, priority) in enumerate(schedule):
        sim.schedule(
            time,
            lambda t=time, p=priority, s=seq: fired.append((t, int(p), s)),
            priority=priority,
        )
    sim.run_until(1e6 + 1)
    assert fired == sorted(fired)
    assert len(fired) == len(schedule)


@given(st.lists(times, min_size=1, max_size=40))
@settings(max_examples=60)
def test_clock_is_monotone(event_times):
    sim = Simulator()
    observed = []
    for t in event_times:
        sim.schedule(t, lambda: observed.append(sim.now))
    sim.run_until(1e6 + 1)
    assert observed == sorted(observed)


@given(st.lists(times, max_size=30), times)
@settings(max_examples=60)
def test_horizon_partition(event_times, horizon):
    """run_until(h) fires exactly the events with time <= h."""
    sim = Simulator()
    fired = []
    for t in event_times:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run_until(horizon)
    assert fired == sorted(t for t in event_times if t <= horizon)
    sim.run_until(1e6 + 1)
    assert sorted(fired) == sorted(event_times)
