"""Phase-structured wall-clock profiling for experiment sweeps.

A :class:`Profiler` aggregates two sample kinds under named phases
(``run_all`` opens one phase per suite):

* **phase wall time** — :meth:`Profiler.phase` context-manager spans,
  which ``run_all``'s suite headers and wall-clock summary read;
* **trial samples** — one per in-process
  :func:`~repro.experiments.executor.execute_trial` call: the engine's
  event count, wall seconds and simulated seconds of ``sim.run``.

The active profiler travels through a module-level context
(:func:`activated` / :func:`active_profiler`) rather than through every
call signature, because trials are dispatched through a deep call chain
(``run_all`` → suite → ``run_guess_config`` → executor → trial) that
should not grow a threading parameter.  A process-pool worker's trial
samples never reach the parent's profiler, so pooled trials are absent
from the engine and trial columns by design; the phase wall time still
covers them.

Determinism contract: the profiler reads the wall clock (that is its
job) but never influences the simulation — a trial sample reads the
event count the engine already keeps, after the run.  The kernel itself
reads no clock: a sweep is timed here and in ``execute_trial``, each
read carrying an ``allow-wallclock`` pragma.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.reporting.tables import format_table

#: Phase name used for samples recorded outside any phase() block.
GLOBAL_PHASE = "(global)"


class _PhaseStats:
    """Accumulated samples for one phase."""

    __slots__ = ("wall_seconds", "events", "trial_wall", "sim_seconds", "trials")

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.events = 0
        self.trial_wall = 0.0
        self.sim_seconds = 0.0
        self.trials = 0


class Profiler:
    """Collects per-phase wall-clock and per-trial engine samples."""

    def __init__(self) -> None:
        self._order: List[str] = []
        self._stats: Dict[str, _PhaseStats] = {}
        self._current = GLOBAL_PHASE

    def _phase_stats(self, name: str) -> _PhaseStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = _PhaseStats()
            self._stats[name] = stats
            self._order.append(name)
        return stats

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute nested samples (and wall time) to phase ``name``."""
        previous = self._current
        self._current = name
        started = time.perf_counter()  # repro: allow-wallclock (profiling)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started  # repro: allow-wallclock
            self._phase_stats(name).wall_seconds += elapsed
            self._current = previous

    def record_trial(
        self, *, events: int, wall_seconds: float, sim_seconds: float
    ) -> None:
        """Absorb one trial's engine sample into the current phase."""
        stats = self._phase_stats(self._current)
        stats.events += events
        stats.trial_wall += wall_seconds
        stats.sim_seconds += sim_seconds
        stats.trials += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def phases(self) -> List[str]:
        """Phase names in first-seen order."""
        return list(self._order)

    def wall_seconds(self, name: str) -> float:
        """Wall seconds spent inside phase ``name`` (0.0 if never entered)."""
        stats = self._stats.get(name)
        return 0.0 if stats is None else stats.wall_seconds

    def render(self) -> str:
        """Plain-text profile table, one row per phase."""
        columns = (
            "phase",
            "wall s",
            "engine events",
            "events/s",
            "sim-s/s",
            "trials",
        )
        rows = []
        for name in self._order:
            stats = self._stats[name]
            wall = stats.trial_wall or float("nan")
            rows.append((
                name,
                stats.wall_seconds,
                stats.events,
                stats.events / wall,
                stats.sim_seconds / wall,
                stats.trials,
            ))
        return format_table(columns, rows, title="profile report")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Profiler(phases={len(self._order)})"


# ----------------------------------------------------------------------
# Active-profiler context
# ----------------------------------------------------------------------

_ACTIVE: Optional[Profiler] = None


def active_profiler() -> Optional[Profiler]:
    """The profiler installed by :func:`activated`, or None."""
    return _ACTIVE


@contextmanager
def activated(profiler: Profiler) -> Iterator[Profiler]:
    """Install ``profiler`` as the process-wide active profiler."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous
