"""Time-to-recovery from windowed satisfaction counters.

A storm's damage shows up twice: the *dip* (how far query satisfaction
falls) and the *scar* (how long it stays depressed while caches purge
dead entries).  Mean satisfaction over a whole run blurs both into one
number; the collector's satisfaction windows keep the time axis, and
this module reduces their per-window (queries, satisfied) counts to a single
time-to-recovery scalar: virtual seconds from a reference instant
(usually the storm end) until windowed satisfaction first returns to a
threshold fraction of its pre-storm baseline.

Pure arithmetic over already-collected counters — no RNG, no
scheduling, no clock (RD006 over this module).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple


class SatisfactionWindow(NamedTuple):
    """Per-window query counts: one row of ``satisfaction_windows``.

    Attributes:
        start: window start, simulation seconds.
        end: window end (exclusive).
        queries: queries issued inside the window.
        satisfied: of those, queries that met their result target.
    """

    start: float
    end: float
    queries: int
    satisfied: int

    @property
    def rate(self) -> float:
        """Windowed satisfaction rate; 0.0 for an idle window."""
        return self.satisfied / self.queries if self.queries else 0.0


def baseline_rate(
    windows: Sequence[SatisfactionWindow], before: float
) -> float:
    """Pooled satisfaction rate over windows ending at/before ``before``.

    Pooled (sum of counts, then divide), not a mean of per-window
    rates, so sparse windows do not get outsized weight.  Returns 0.0
    when no window qualifies.
    """
    queries = 0
    satisfied = 0
    for window in windows:
        if window.end <= before and window.queries:
            queries += window.queries
            satisfied += window.satisfied
    return satisfied / queries if queries else 0.0


def time_to_recovery(
    windows: Sequence[SatisfactionWindow],
    *,
    after: float,
    baseline: float,
    threshold: float = 0.9,
    min_queries: int = 1,
) -> float:
    """Seconds past ``after`` until satisfaction recovers, or ``inf``.

    Recovery is the first window ending after ``after`` with at least
    ``min_queries`` queries whose rate reaches ``threshold *
    baseline``; the returned value is that window's end minus
    ``after``.  ``inf`` when the run ends unrecovered — deliberately
    not a sentinel like -1, so "mechanisms strictly improve recovery"
    comparisons remain plain ``<`` even when the degraded cell never
    comes back.

    A zero ``baseline`` (no pre-storm traffic to compare against) also
    returns ``inf``: recovery to nothing is not recovery.
    """
    if baseline <= 0.0:
        return float("inf")
    target = threshold * baseline
    for window in windows:
        if window.end <= after or window.queries < min_queries:
            continue
        if window.rate >= target:
            return window.end - after
    return float("inf")


def to_windows(
    snapshots: Sequence[Tuple[float, float, int, int]]
) -> Tuple[SatisfactionWindow, ...]:
    """Adapt raw ``(start, end, queries, satisfied)`` rows."""
    return tuple(SatisfactionWindow(*row) for row in snapshots)
