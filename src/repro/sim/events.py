"""Priority classes of the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  The sequence number is a
monotonically increasing tie-breaker assigned by the engine, which makes the
execution order of same-time, same-priority events equal to their scheduling
order — a property the reproducibility tests rely on.
"""

from __future__ import annotations

import enum


class EventPriority(enum.IntEnum):
    """Priority classes for events that fire at the same timestamp.

    Lower numeric value runs first.  Deaths run before protocol activity at
    the same instant (a peer that dies at time *t* must not answer a probe
    at *t*), and births run right after deaths so the population size is
    restored before any query activity.
    """

    DEATH = 0
    BIRTH = 1
    PROTOCOL = 2
    QUERY = 3
    METRICS = 4
