"""The engine's pending-event queue: a binary heap with lazy tombstones.

:class:`HeapScheduler` is the one scheduler.  Events pop in
``(time, priority, seq)`` order — time, then priority class, then
scheduling order — the firing-order contract the golden trace digests
in ``tests/integration`` pin.

The module is named for the timing wheel it also used to hold, removed
after an end-to-end measurement (EXPERIMENTS.md "Kernel scaling").  The
path stays because ``bench/trace.py`` imports :func:`make_scheduler`
from here; ROADMAP lists the rename.

Tombstone hygiene: cancellation is O(1) and lazy — a cancelled event is
skipped when it surfaces.  The scheduler counts pending tombstones and,
when they outnumber live events (beyond a small floor), filters the
heap, re-heapifies and increments ``compactions``, so mass cancellation
cannot grow the queue unboundedly.  ``GuessSimulation.report`` exports
the counters to the observability registry (reads never perturb a run).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventHandle

    #: ``(time, priority, seq, handle)`` — the first three fields are
    #: the engine's total event order; ``seq`` is unique, so tuple
    #: comparison never reaches the (incomparable) handle.
    QueueItem = Tuple[float, int, int, "EventHandle"]

#: Queues smaller than this skip compaction (filtering is pure churn).
_COMPACT_MIN_SIZE = 64


class HeapScheduler:
    """Binary-heap event queue: O(log n) push/pop, lazy cancellation.

    Queue items are ``(time, priority, seq, handle)`` tuples; ``_count``
    is the number of pending items, tombstones included.
    """

    __slots__ = ("_heap", "_count", "_tombstones", "_compactions")

    #: Human-readable scheduler name (``Simulator.scheduler``).
    name = "heap"

    def __init__(self) -> None:
        self._heap: List["QueueItem"] = []
        self._count = 0
        self._tombstones = 0
        self._compactions = 0

    def __len__(self) -> int:
        return self._count

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """Number of tombstone compaction passes performed."""
        return self._compactions

    @property
    def cancelled_ratio(self) -> float:
        """Fraction of pending slots held by tombstones (0 when empty)."""
        return self._tombstones / self._count if self._count else 0.0

    def note_cancel(self) -> None:
        """One pending event was cancelled; compact if tombstones dominate."""
        self._tombstones += 1
        if (
            self._count > _COMPACT_MIN_SIZE
            and self._tombstones * 2 > self._count
        ):
            self._compact()
            self._compactions += 1

    def _discard_tombstone(self) -> None:
        """Bookkeeping for a tombstone dropped during lazy pruning."""
        self._count -= 1
        self._tombstones -= 1

    def push(self, item: "QueueItem") -> None:
        heappush(self._heap, item)
        self._count += 1

    def pop_next(self, horizon: float) -> Optional["EventHandle"]:
        """Pop the earliest live event if its time is <= ``horizon``.

        Surfaced tombstones are pruned along the way.  Returns None —
        leaving the queue untouched — when the queue is empty or the
        earliest live event lies beyond the horizon.
        """
        heap = self._heap
        while heap:
            item = heap[0]
            handle = item[3]
            if handle._cancelled:
                heappop(heap)
                self._discard_tombstone()
                continue
            if item[0] > horizon:
                return None
            heappop(heap)
            self._count -= 1
            return handle
        return None

    def _compact(self) -> None:
        self._heap = [
            item for item in self._heap if not item[3]._cancelled
        ]
        heapify(self._heap)
        self._count = len(self._heap)
        self._tombstones = 0


def make_scheduler(name: str) -> HeapScheduler:
    """Build the scheduler named ``name``; only ``"heap"`` exists."""
    if name != "heap":
        raise ConfigError(f"unknown scheduler {name!r}; expected 'heap'")
    return HeapScheduler()
