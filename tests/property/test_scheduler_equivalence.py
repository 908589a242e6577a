"""The engine against an ordering oracle: fired order is key order, always.

The engine's contract is that events fire in ``(time, priority, seq)``
order.  The golden-digest pins prove it for specific protocol runs;
these properties prove it for adversarial schedules hypothesis invents —
same-instant ties, far-future times, and events that schedule more
events (including at the current instant) — by comparing the engine with
an oracle that shares no code with it: a plain list of pending keys and
``min()``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import EventPriority

#: Mixes arbitrary floats, grids that collide often (ties), and
#: far-future times.
times = st.one_of(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.integers(min_value=0, max_value=80).map(lambda i: i * 0.1),
    st.integers(min_value=0, max_value=50).map(float),
    st.floats(min_value=1e3, max_value=1e7, allow_nan=False),
)
priorities = st.sampled_from(list(EventPriority))

#: One scheduled event: (time, priority).
events = st.tuples(times, priorities)


def run_schedule(schedule, followups):
    """Fire a schedule; returns ``(fired, expected, leftover)`` key lists.

    ``fired`` is the ``(time, priority, seq)`` of each event in the order
    the engine ran it; ``expected`` is what the oracle says should have
    run at that step — the minimum key among the events that were
    scheduled and not yet fired at that moment;
    ``leftover`` is what the oracle still holds when the engine stops.

    ``followups`` drives the dynamic part: event *i* reschedules itself
    ``followups[i] % 3`` times at deterministic offsets, including 0.0
    (a same-instant follow-up, which may sort *before* events already
    pending — hence a pending-set oracle, not one global sort).
    """
    sim = Simulator()
    keys = {}
    pending = []
    fired = []
    expected = []

    def add(time, priority, index, depth):
        # The engine numbers events in scheduling order, starting at 0.
        keys[index, depth] = (float(time), int(priority), len(keys))
        sim.schedule(time, action, priority=priority, args=(index, depth))
        pending.append(keys[index, depth])

    def action(index, depth):
        fired.append(keys[index, depth])
        head = min(pending, default=None)
        expected.append(head)
        if head is not None:
            pending.remove(head)
        extra = followups[index % len(followups)] % 3 if followups else 0
        if depth < extra:
            offset = (0.0, 0.25, 17.0)[depth]
            add(
                sim.now + offset,
                list(EventPriority)[index % len(EventPriority)],
                index,
                depth + 1,
            )

    for index, (time, priority) in enumerate(schedule):
        add(time, priority, index, 0)
    sim.run_until(math.inf)
    return fired, expected, pending


@given(
    st.lists(events, max_size=50),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_each_fired_event_is_the_pending_minimum(schedule, followups):
    fired, expected, leftover = run_schedule(schedule, followups)
    assert fired == expected
    assert leftover == []


@given(st.lists(events, max_size=60))
@settings(max_examples=80, deadline=None)
def test_static_schedule_fires_events_in_key_order(schedule):
    """Without follow-ups the oracle collapses to one sort: the fired
    log is exactly the schedule sorted by (time, priority, seq)."""
    fired, _, leftover = run_schedule(schedule, [])
    assert fired == sorted(
        (time, int(priority), seq)
        for seq, (time, priority) in enumerate(schedule)
    )
    assert leftover == []
