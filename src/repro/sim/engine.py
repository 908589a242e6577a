"""A deterministic discrete-event simulation engine.

An event is the tuple ``(time, priority, seq, action, label, args)``;
the engine pushes it on a binary heap
(:class:`repro.sim.wheel.HeapScheduler`), pops it and calls
``action(*args)``.  The engine guarantees:

* events fire in nondecreasing time order;
* same-time events fire in ``priority`` order, then scheduling order;
* the clock never moves backwards, and scheduling into the past (or at
  a NaN time) raises :class:`~repro.errors.SimulationError`;
* a scheduled event always fires: ``schedule`` returns nothing to revoke
  it with.  A handler whose subject may be gone by then (a dead peer's
  next ping) checks when it fires and returns — DESIGN.md §10.

The engine knows nothing about peers or protocols — higher layers schedule
plain callbacks.  This mirrors how the paper's custom simulator is described
(Section 5.1) and substitutes for ``simpy``, which is not available in this
offline environment.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import EventPriority
from repro.sim.wheel import HeapScheduler, QueueItem


class TraceHasher:
    """Rolling digest of the executed event stream (determinism oracle).

    Every fired event folds ``(time, priority, seq, label)`` into a
    BLAKE2b state.  Two runs with the same ``(seed, params)`` must
    produce the same digest bit-for-bit; any divergence — a stray global
    RNG draw, an unordered iteration, a wall-clock leak — shows up as a
    digest mismatch at the first diverging event.  This is the dynamic
    counterpart of the static rules in :mod:`repro.devtools`.
    """

    __slots__ = ("_hash",)

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def fold(self, time: float, priority: int, seq: int, label: str) -> None:
        """Absorb one fired event into the digest.

        ``float.hex()`` renders the timestamp exactly (no decimal
        rounding), so two runs differing by one ulp still diverge.
        """
        self._hash.update(
            f"{time.hex()}|{priority}|{seq}|{label}\n".encode("utf-8")
        )

    def digest(self) -> str:
        """Hex digest of the trace so far (non-destructive snapshot)."""
        return self._hash.copy().hexdigest()


class Simulator:
    """Deterministic event-heap simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("hello at t=10"))
        sim.run_until(100.0)

    The clock starts at 0.

    Args:
        trace_hash: when True, fold every fired event into a
            :class:`TraceHasher` so two same-seed runs can be compared
            via :attr:`trace_digest` (the determinism sanitizer).  Off
            by default — it costs one hash update per event.
    """

    def __init__(self, *, trace_hash: bool = False) -> None:
        self._now = 0.0
        self._queue = HeapScheduler()
        self._seq = 0
        self._running = False
        self._events_executed = 0
        self._tracer: Optional[TraceHasher] = TraceHasher() if trace_hash else None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far (diagnostics)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def scheduler(self) -> str:
        """Name of the event-queue structure (``"heap"``)."""
        return self._queue.name

    @property
    def trace_digest(self) -> Optional[str]:
        """Digest of the executed event stream, or None if not tracing.

        Same ``(seed, params)`` + same code ⇒ same digest; see
        :class:`TraceHasher`.
        """
        return None if self._tracer is None else self._tracer.digest()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        time: float,
        action: Callable[..., Any],
        *,
        priority: EventPriority = EventPriority.PROTOCOL,
        label: str = "",
        args: tuple = (),
    ) -> None:
        """Schedule ``action`` to run at absolute time ``time``.

        Args:
            time: absolute simulation timestamp; must be >= ``now``.
            action: callable invoked as ``action(*args)`` when the event
                fires.  Hot callers pass a bound method plus ``args``
                rather than wrapping the call in a lambda, which avoids
                allocating a closure (and its cell variables) per event.
            priority: tie-break class for same-time events.
            label: diagnostic tag, folded into the trace digest.
            args: positional arguments for ``action``; never part of the
                ordering or the trace digest.

        Raises:
            SimulationError: if ``time`` is NaN or precedes the clock.
        """
        if not time >= self._now:  # NaN fails this too
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._queue.push((float(time), int(priority), seq, action, label, args))

    def schedule_after(
        self,
        delay: float,
        action: Callable[..., Any],
        *,
        priority: EventPriority = EventPriority.PROTOCOL,
        label: str = "",
        args: tuple = (),
    ) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule(
            self._now + delay, action, priority=priority, label=label, args=args
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _fire(self, item: QueueItem) -> None:
        """Advance the clock to ``item`` and execute it (internal)."""
        when, priority, seq, action, label, args = item
        self._now = when
        self._events_executed += 1
        if self._tracer is not None:
            self._tracer.fold(when, priority, seq, label)
        action(*args)

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            True if an event fired; False if the queue was empty.
        """
        item = self._queue.pop_next(float("inf"))
        if item is None:
            return False
        self._fire(item)
        return True

    def run_until(self, end_time: float) -> int:
        """Run events with ``time <= end_time``; advance the clock to it.

        Events scheduled during execution are honoured as long as they fall
        within the horizon.  The clock is left at exactly ``end_time`` even
        if the last event fired earlier, so back-to-back ``run_until`` calls
        cover contiguous windows.

        Returns:
            Number of events executed in this call.

        Raises:
            SimulationError: if ``end_time`` precedes the current clock or
                is NaN, or the engine is re-entered from inside an event.
        """
        if not end_time >= self._now:  # NaN fails this too
            raise SimulationError(
                f"run_until({end_time}) precedes current time {self._now}"
            )
        if self._running:
            raise SimulationError("Simulator.run_until is not re-entrant")
        self._running = True
        executed = 0
        pop_next = self._queue.pop_next
        fire = self._fire
        try:
            while True:
                item = pop_next(end_time)
                if item is None:
                    break
                fire(item)
                executed += 1
        finally:
            self._running = False
        self._now = float(end_time)
        return executed

    def run_all(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events`` is reached).

        Returns:
            Number of events executed.
        """
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending}, "
            f"executed={self._events_executed})"
        )


#: The paper-facing name for the simulation kernel; ``Engine(trace_hash=True)``
#: is the determinism sanitizer's documented spelling.
Engine = Simulator
