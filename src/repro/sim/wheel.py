"""The engine's pending-event queue: a binary heap of event tuples.

:class:`HeapScheduler` is the one scheduler.  Events pop in
``(time, priority, seq)`` order — time, then priority class, then
scheduling order — the firing-order contract the golden trace digests
in ``tests/integration`` pin.

The module is named for the timing wheel it also used to hold, removed
after an end-to-end measurement (EXPERIMENTS.md "Kernel scaling").  The
path stays because ``bench/trace.py`` imports :func:`make_scheduler`
from here; ROADMAP lists the rename.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ConfigError

#: ``(time, priority, seq, action, label, args)`` — the first three
#: fields are the engine's total event order; ``seq`` is unique, so
#: tuple comparison never reaches the (incomparable) action.
QueueItem = Tuple[float, int, int, Callable[..., Any], str, tuple]


class HeapScheduler:
    """Binary-heap event queue: O(log n) push and pop."""

    __slots__ = ("_heap",)

    #: Human-readable scheduler name (``Simulator.scheduler``).
    name = "heap"

    def __init__(self) -> None:
        self._heap: List[QueueItem] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, item: QueueItem) -> None:
        heappush(self._heap, item)

    def pop_next(self, horizon: float) -> Optional[QueueItem]:
        """Pop the earliest event if its time is <= ``horizon``.

        Returns None — leaving the queue untouched — when the queue is
        empty or the earliest event lies beyond the horizon.
        """
        heap = self._heap
        if heap and heap[0][0] <= horizon:
            return heappop(heap)
        return None


def make_scheduler(name: str) -> HeapScheduler:
    """Build the scheduler named ``name``; only ``"heap"`` exists."""
    if name != "heap":
        raise ConfigError(f"unknown scheduler {name!r}; expected 'heap'")
    return HeapScheduler()
