"""Parallel trial execution for experiment sweeps.

The paper's evaluation is ~20 figures/tables, each a sweep of
*independent* seeded :class:`~repro.core.network_sim.GuessSimulation`
runs — an embarrassingly parallel workload the serial runner left on one
core.  This module supplies the missing abstraction:

* :class:`TrialSpec` — a frozen, picklable description of one seeded
  trial (the seed is derived *before* dispatch, in the parent, so worker
  placement can never change which seed a trial gets);
* :func:`build_simulation` — the one place a spec becomes a
  simulation — and :func:`execute_trial`, a module-level worker function
  (picklable by reference) that builds, runs, and reports one;
* :class:`TrialExecutor` — the strategy interface, with
  :class:`SerialTrialExecutor` (in-process, zero overhead) and
  :class:`ProcessTrialExecutor` (a lazily started
  :class:`~concurrent.futures.ProcessPoolExecutor`) implementations;
* :func:`get_executor` — the ``workers=N`` factory used by
  :func:`~repro.experiments.runner.run_guess_config`, the suites' module
  CLI, and ``run_all --workers N``.

Determinism guarantee: each trial owns a private
:class:`~repro.sim.rng.RngRegistry` seeded from its spec — no RNG state
is shared between trials, processes inherit nothing mutable — and
results are returned **in spec order** regardless of completion order.
A parallel sweep is therefore byte-identical to the serial one, which
``tests/experiments/test_executor.py`` asserts report-by-report.
"""

from __future__ import annotations

import gc
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.baselines.gossip import GossipPlan
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.freshness.plan import FreshnessPlan
from repro.metrics.collectors import SimulationReport
from repro.observe.profiler import active_profiler
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.scenarios import ScenarioPlan

@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to run one seeded trial, picklable.

    Attributes:
        system / protocol: the configuration under test.
        duration: measured simulation seconds (after warmup).
        warmup: seconds before metrics collection starts.
        seed: the trial's master seed, already derived by the caller.
        keep_queries: retain per-query records in the report.
        health_sample_interval: cache-health sampling period (None = off).
        faults: optional fault plan (frozen, hence picklable); ``None``
            or an all-zeros plan runs the fault-free code path.
        trace_hash: enable the engine's determinism sanitizer.
        scenarios: optional correlated-failure plan (churn storms, flash
            crowds; frozen, hence picklable); ``None`` or an all-noop
            plan runs the scenario-free code path bit-identically.
        resilience: optional per-peer graceful-degradation policy
            (breakers, retry budgets, graded shedding); ``None`` or an
            all-off policy changes nothing.
        satisfaction_window: width of the collector's windowed
            satisfaction channel (``None`` = off), feeding the
            time-to-recovery metric.
        gossip: optional gossip-assisted GUESS plan (frozen, hence
            picklable); ``None`` or a no-op plan runs the gossip-free
            code path bit-identically.
        freshness: optional cache-freshness plan (push invalidation +
            heterogeneous cache sizing; frozen, hence picklable);
            ``None`` or a no-op plan runs the freshness-free code path
            bit-identically.
    """

    system: SystemParams
    protocol: ProtocolParams
    duration: float
    warmup: float
    seed: int
    keep_queries: bool = False
    health_sample_interval: Optional[float] = 60.0
    faults: Optional[FaultPlan] = None
    trace_hash: bool = False
    scenarios: Optional[ScenarioPlan] = None
    resilience: Optional[ResiliencePolicy] = None
    satisfaction_window: Optional[float] = None
    gossip: Optional[GossipPlan] = None
    freshness: Optional[FreshnessPlan] = None


def build_simulation(spec: TrialSpec) -> GuessSimulation:
    """The simulation ``spec`` describes, built but not yet run.

    The one place a :class:`TrialSpec` becomes a
    :class:`~repro.core.network_sim.GuessSimulation`: a field added to
    the spec is wired here and nowhere else.
    """
    return GuessSimulation(
        spec.system,
        spec.protocol,
        seed=spec.seed,
        warmup=spec.warmup,
        keep_queries=spec.keep_queries,
        health_sample_interval=spec.health_sample_interval,
        faults=spec.faults,
        trace_hash=spec.trace_hash,
        scenarios=spec.scenarios,
        resilience=spec.resilience,
        satisfaction_window=spec.satisfaction_window,
        gossip=spec.gossip,
        freshness=spec.freshness,
    )


def execute_trial(spec: TrialSpec) -> SimulationReport:
    """Run one trial to completion (module-level, hence process-picklable)."""
    sim = build_simulation(spec)
    # Profiling hook: when a profiler is active in this process, the
    # engine reports this trial's (events, wall, sim-seconds) sample.
    # The profiler only reads engine counters — the simulation itself is
    # untouched.  Pool workers see no active profiler (it does not cross
    # process boundaries); their wall time is covered by the parent's
    # batch samples.
    sim.engine.profiler = active_profiler()
    sim.run(spec.warmup + spec.duration)
    report = sim.report()
    # A finished simulation is cyclic garbage (the queue holds its bound
    # methods): free it now, or a sweep's peak memory counts the trials
    # still waiting for a generation-2 pass.
    del sim
    gc.collect()
    return report


_Item = TypeVar("_Item")


class TrialExecutor(ABC):
    """Strategy for running batches of independent, picklable work items.

    Executors are reusable across many batches (a suite runs one executor
    over every sweep cell) and are context managers; :meth:`close` is
    idempotent.  The core primitive is :meth:`map` — order-preserving
    application of a module-level function — with :meth:`run_trials` as
    the :class:`TrialSpec` convenience wrapper.
    """

    #: Degree of parallelism this executor targets (1 for serial).
    workers: int = 1

    @abstractmethod
    def map(
        self,
        fn: Callable[[_Item], Any],
        items: Iterable[_Item],
    ) -> List[Any]:
        """Apply ``fn`` to every item; results come back **in item order**.

        ``fn`` must be a module-level callable and the items picklable
        when the executor is process-backed.
        """

    def run_trials(self, specs: Sequence[TrialSpec]) -> List[SimulationReport]:
        """Run every spec; reports are returned **in spec order**."""
        return self.map(execute_trial, specs)

    def close(self) -> None:
        """Release any pooled resources (default: nothing to release)."""

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def profiled_batch(run: Callable[[], List[Any]], size: int) -> List[Any]:
    """``run()``, timed for the active profiler (if any) as one batch of ``size``.

    Every executor's ``map`` dispatches through this; a batch that raises
    is not recorded.
    """
    profiler = active_profiler()
    if profiler is None:
        return run()
    started = time.perf_counter()  # repro: allow-wallclock (profiling)
    results = run()
    elapsed = time.perf_counter() - started  # repro: allow-wallclock
    profiler.record_batch(size, elapsed)
    return results


class SerialTrialExecutor(TrialExecutor):
    """Run work items one after another in the calling process."""

    workers = 1

    def map(
        self,
        fn: Callable[[_Item], Any],
        items: Iterable[_Item],
    ) -> List[Any]:
        items = list(items)
        return profiled_batch(lambda: [fn(item) for item in items], len(items))


class ProcessTrialExecutor(TrialExecutor):
    """Run work items on a pool of worker processes.

    The pool starts lazily on the first multi-item batch and is reused
    for the executor's lifetime, so per-sweep-cell pool spin-up is paid
    once per suite, not once per configuration.  Single-item batches run
    in-process: dispatch/pickling overhead would only add latency.

    Args:
        workers: pool size; ``None`` or 0 means ``os.cpu_count()``.

    Attributes:
        pool_started: True once any batch has gone to worker processes
            (read it to tell a parallel run from a serial one in disguise).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        resolved = workers or os.cpu_count() or 1
        if resolved < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = int(resolved)
        self.pool_started = False
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, spawning (or respawning after discard) lazily."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.pool_started = True
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        """Retire the current pool (broken or poisoned) without raising.

        The next batch respawns a fresh pool via :meth:`_ensure_pool`;
        pending work is cancelled — nothing keeps running unobserved —
        unless ``wait`` asks for it to finish first.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=not wait)
        except Exception:  # a broken pool may refuse even a shutdown
            pass

    def map(
        self,
        fn: Callable[[_Item], Any],
        items: Iterable[_Item],
    ) -> List[Any]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return profiled_batch(lambda: [fn(item) for item in items], len(items))
        pool = self._ensure_pool()
        # Executor.map preserves input order regardless of which worker
        # finishes first — the trial-order-stability guarantee.  Any
        # exception escaping the batch (a worker raising, or the pool
        # breaking outright) retires the pool: a BrokenProcessPool
        # would otherwise leave self._pool permanently unusable, and a
        # mid-iteration error would leave queued work running with no
        # one reading the results.
        try:
            return profiled_batch(lambda: list(pool.map(fn, items)), len(items))
        except BaseException:
            self._discard_pool()
            raise

    def close(self) -> None:
        """Shut the pool down; safe to call repeatedly or on a dead pool."""
        self._discard_pool(wait=True)


def get_executor(workers: Optional[int]) -> TrialExecutor:
    """The executor for a ``workers=N`` request.

    ``None`` or 1 selects the serial executor; 0 means "one worker per
    CPU"; N > 1 selects a process pool of exactly N workers.

    Raises:
        ConfigError: for negative worker counts.
    """
    if workers is not None and workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers is None or workers == 1:
        return SerialTrialExecutor()
    return ProcessTrialExecutor(workers)
