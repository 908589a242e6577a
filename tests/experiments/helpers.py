"""Shared scaffolding for the experiment-suite tests."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from hashlib import sha256
from typing import Optional

from repro.errors import ConfigError, ExecutionError
from repro.experiments.executor import execute_trial
from repro.experiments.profiles import Profile

#: Far below the ``smoke`` registry profile: a whole suite in about a second.
MICRO = Profile(
    name="micro",
    duration=120.0,
    warmup=30.0,
    trials=1,
    network_sizes=(60,),
    reference_size=60,
    cache_sizes=(5, 20),
    ping_intervals=(15.0, 120.0),
    baseline_queries=60,
    max_extent=60,
)


def pinned(results, digest: str):
    """``results``, once their rendered text hashes to ``digest``.

    The literals were recorded at commit 00c8cce, before the suites were
    re-expressed as cells and metrics: a refactor of the harness must
    leave every rendered byte where it was.  ``results`` is one
    :class:`~repro.experiments.runner.ExperimentResult` or a list.
    """
    rendered = "\n\n".join(
        result.render()
        for result in (results if isinstance(results, list) else [results])
    )
    assert sha256(rendered.encode("utf-8")).hexdigest() == digest
    return results


# ----------------------------------------------------------------------
# Crash injection for the supervisor drills
# ----------------------------------------------------------------------

#: Failure modes :func:`chaotic_trial` can inject.
CHAOS_MODES = ("raise", "exit", "hang")


class ChaosError(ExecutionError):
    """The deliberate failure a ``raise``-mode :class:`ChaosSpec` throws."""


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic crash injection for one trial.

    Attributes:
        mode: ``"raise"`` (raise :class:`ChaosError`), ``"exit"``
            (``os._exit`` — kills the worker process and breaks a
            process pool), or ``"hang"`` (sleep past any watchdog
            deadline).
        times: sabotage only the first ``times`` attempts, then run
            clean; ``None`` sabotages every attempt (the quarantine
            path).  Attempt counting crosses process boundaries via a
            marker file, so ``times`` requires ``marker_dir``.
        marker_dir: directory for the attempt-count marker file.
        key: marker-file stem; must be unique per sabotaged trial.
        hang_seconds: sleep length for ``"hang"`` mode.
    """

    mode: str
    times: Optional[int] = None
    marker_dir: Optional[str] = None
    key: str = "chaos"
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ConfigError(
                f"chaos mode must be one of {CHAOS_MODES}, got {self.mode!r}"
            )
        if self.times is not None and self.marker_dir is None:
            raise ConfigError(
                "bounded chaos (times=N) needs marker_dir to count "
                "attempts across worker processes"
            )


def _apply_chaos(chaos: ChaosSpec) -> None:
    """Fire the chaos failure mode unless its sabotage budget is spent."""
    if chaos.times is not None:
        path = os.path.join(chaos.marker_dir, f"{chaos.key}.attempts")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                spent = int(handle.read().strip() or 0)
        except (FileNotFoundError, ValueError):
            spent = 0
        if spent >= chaos.times:
            return
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(str(spent + 1))
    if chaos.mode == "raise":
        raise ChaosError(f"injected failure (key={chaos.key})")
    if chaos.mode == "exit":
        os._exit(23)
    # "hang": sleep far past any reasonable deadline.  The watchdog is
    # expected to kill this worker long before the sleep returns.
    time.sleep(chaos.hang_seconds)


def chaotic_trial(item: tuple) -> object:
    """:func:`execute_trial` on ``spec`` after ``chaos`` (if any) fires.

    ``item`` is ``(spec, chaos)``.  Module-level, so a forked pool
    worker finds it by reference.  The sabotage comes before the
    simulation is built, so an attempt that survives it reports exactly
    what ``execute_trial(spec)`` does.
    """
    spec, chaos = item
    if chaos is not None:
        _apply_chaos(chaos)
    return execute_trial(spec)

