"""Cache-freshness-under-churn suite (beyond the paper).

The paper's link caches learn about departures only the hard way: a
probe times out, the entry is evicted, and the probe's cost has already
been paid.  Under correlated churn the whole network pays it at once —
every survivor's cache is suddenly full of pointers at corpses.  The
:mod:`repro.freshness` layer attacks that waste from two sides:

* **push invalidation** — a departing peer's former contacts are told
  (pong-piggybacked :class:`~repro.core.messages.CacheUpdate`
  exchanges) so stale entries are purged *before* they cost a dead
  probe, and the ack's pong refreshes the vacated slot;
* **capacity-proportional cache sizing** — per-peer cache capacities
  track library size (:class:`~repro.freshness.CacheSizing`), so the
  peers everyone probes most keep the most pointers fresh.

The suite measures what each side buys, separately and together:

* ``freshness_grid`` — storm fraction × {off, invalidate, size, full}:
  satisfaction, dead probes per query with the **stale/fresh split**
  (stale = the pointer's target departed after it was acquired —
  exactly the waste invalidation can prevent), notice overhead per
  query, purge/refresh counts, and time-to-recovery.
* ``freshness_recovery`` — time-to-recovery vs storm fraction, one
  curve per mode.

All four modes of a fraction share one base seed, so the storm kills
the same peers at the same times: the stale-dead-probe delta between
the ``off`` and ``invalidate`` rows is push invalidation's doing alone
(freshness draws live on ``freshness:*`` RNG substreams).

Run via ``python -m repro.experiments.run_all --suite cache_freshness``
or directly::

    python -m repro.experiments.cache_freshness --profile smoke --workers 2

The module CLI's ``--verify-parallel`` flag re-runs the suite serially
and on a process pool and fails unless the rendered reports are
byte-identical — the freshness subsystem's serial-vs-parallel
determinism check used by the ``suite-smoke`` CI job.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TrialFailure
from repro.experiments.executor import TrialExecutor, get_executor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    ExperimentResult,
    averaged,
    run_guess_config,
    suite_main,
)
from repro.freshness import CacheSizing, FreshnessPlan
from repro.metrics.summary import mean, ratio
from repro.observe.staleness import summarize_staleness
from repro.resilience import (
    ChurnStorm,
    ScenarioPlan,
    baseline_rate,
    time_to_recovery,
)
from repro.resilience.recovery import to_windows

#: Fraction of the live population each storm removes.
STORM_FRACTIONS: Tuple[float, ...] = (0.3, 0.5)

#: Seconds over which the storm's departures spread.
STORM_WIDTH = 20.0

#: Width of the windowed satisfaction channel feeding time-to-recovery.
SATISFACTION_WINDOW = 25.0

#: Recovered = windowed satisfaction back within this much of baseline.
RECOVERY_THRESHOLD = 0.9

#: Windows with fewer queries than this are too sparse to call recovery.
MIN_WINDOW_QUERIES = 5

#: Not anchored to a paper figure; only sharing across the grid matters.
BASE_SEED = 0xF4E5

PROTOCOL = ProtocolParams(cache_size=30)

#: Median sharer holds DEFAULT_MEDIAN_FILES = 100 files, so a median
#: peer keeps the base capacity; free riders drop to the floor and the
#: Pareto-tail whales are capped at 4x base rather than tracking their
#: (unbounded) libraries.
SIZING = CacheSizing(
    policy="proportional", reference_files=100, min_capacity=5,
    max_capacity=4 * PROTOCOL.cache_size,
)

#: Invalidation tuning: budget 6 / depth 2 buys a consistent stale-dead
#: reduction at a few notices per query (notices concentrate where the
#: deaths do); deeper/wider settings (e.g. 8/3) halve stale probes but
#: roughly double the notice traffic again.
INVALIDATE = FreshnessPlan(notify_budget=6, depth=2)

#: Mode name -> FreshnessPlan (None = paper baseline), sweep order.
MODES: Tuple[Tuple[str, Optional[FreshnessPlan]], ...] = (
    ("off", None),
    ("invalidate", INVALIDATE),
    ("size", FreshnessPlan(sizing=SIZING)),
    ("full", INVALIDATE.with_(sizing=SIZING)),
)


def storm_plan(profile: Profile, fraction: float) -> ScenarioPlan:
    """One storm landing 30% of the way into the measured window.

    No flash crowd rides it (unlike the ``churn_storm`` suite): the
    question here is cache staleness, not overload, so the query rate
    stays flat and every dead probe is churn's doing.
    """
    start = profile.warmup + 0.3 * profile.duration
    return ScenarioPlan(
        storms=(
            ChurnStorm(start=start, width=STORM_WIDTH, fraction=fraction),
        ),
    )


def _recovery_seconds(report, plan: ScenarioPlan) -> float:
    """Time-to-recovery for one trial (inf when it never recovers)."""
    storm = plan.storms[0]
    windows = to_windows(report.satisfaction_windows)
    baseline = baseline_rate(windows, before=storm.start)
    return time_to_recovery(
        windows,
        after=storm.start + storm.width,
        baseline=baseline,
        threshold=RECOVERY_THRESHOLD,
        min_queries=MIN_WINDOW_QUERIES,
    )


def _measure_cell(
    profile: Profile,
    fraction: float,
    freshness: Optional[FreshnessPlan],
    executor: TrialExecutor | None = None,
) -> Dict[str, float]:
    """Run one (storm fraction, mode) cell and fold its metrics."""
    plan = storm_plan(profile, fraction)
    reports = run_guess_config(
        SystemParams(network_size=profile.network_sizes[0]),
        PROTOCOL,
        duration=profile.duration,
        warmup=profile.warmup,
        trials=profile.trials,
        base_seed=BASE_SEED,
        scenarios=plan,
        freshness=freshness,
        satisfaction_window=SATISFACTION_WINDOW,
        executor=executor,
    )
    completed = [r for r in reports if not isinstance(r, TrialFailure)]
    recoveries = [_recovery_seconds(report, plan) for report in completed]
    staleness = [summarize_staleness(report) for report in completed]
    return {
        "satisfied": averaged(reports, "satisfaction_rate"),
        "dead_per_query": averaged(reports, "dead_probes_per_query"),
        "stale_dead": mean([s.stale_dead_probes for s in staleness]),
        "fresh_dead": mean([s.fresh_dead_probes for s in staleness]),
        "stale_frac": mean([s.stale_fraction for s in staleness]),
        "notices_per_query": mean(
            [ratio(r.freshness_notices, r.queries) for r in completed]
        ),
        "purges": averaged(reports, "freshness_purges"),
        "refresh": averaged(reports, "freshness_refresh_imports"),
        "recovery": mean(recoveries),
    }


def _sweep(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> Dict[Tuple[float, str], Dict[str, float]]:
    """The fraction × mode grid, cells in deterministic order."""
    return {
        (fraction, mode): _measure_cell(profile, fraction, freshness, executor)
        for mode, freshness in MODES
        for fraction in STORM_FRACTIONS
    }


def run_freshness_grid(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """Both results from one grid sweep (the cells are shared)."""
    cells = _sweep(profile, executor)
    rows = tuple(
        (
            fraction,
            mode,
            cell["satisfied"],
            cell["dead_per_query"],
            cell["stale_dead"],
            cell["fresh_dead"],
            cell["stale_frac"],
            cell["notices_per_query"],
            cell["purges"],
            cell["refresh"],
            cell["recovery"],
        )
        for (fraction, mode), cell in cells.items()
    )
    grid = ExperimentResult(
        experiment_id="freshness_grid",
        title="Cache freshness under churn: storm fraction × mechanism",
        columns=(
            "Fraction",
            "Mode",
            "Satisfied",
            "DeadIP/Query",
            "StaleDead",
            "FreshDead",
            "StaleFrac",
            "Notices/Query",
            "Purges",
            "Refresh",
            "Recovery(s)",
        ),
        rows=rows,
        notes=(
            "stale dead probes (target departed after the pointer was "
            "acquired) are the waste push invalidation can prevent; "
            "'invalidate' purges them for a few notices per query, "
            "'size' concentrates capacity on the peers queries "
            "actually hit, 'full' composes both"
        ),
    )
    recovery = ExperimentResult(
        experiment_id="freshness_recovery",
        title="Time-to-recovery vs storm fraction, per freshness mode",
        series={
            f"mode={mode}": [
                (fraction, cells[(fraction, mode)]["recovery"])
                for fraction in STORM_FRACTIONS
            ]
            for mode, _ in MODES
        },
        x_label="storm fraction",
        notes=(
            "push invalidation purges corpses ahead of the probe path, "
            "so post-storm caches heal faster than dead-probe eviction "
            "alone allows"
        ),
    )
    return [grid, recovery]


def run_suite(
    profile: Profile,
    workers: int = 1,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """``freshness_grid`` and ``freshness_recovery``.

    An explicit ``executor`` (e.g. the supervised executor shared by
    ``run_all --supervise``) overrides ``workers`` and stays open for
    the caller to close.
    """
    if executor is None:
        with get_executor(workers) as owned:
            return run_suite(profile, executor=owned)
    return run_freshness_grid(profile, executor)


def main(argv: List[str] | None = None) -> int:
    """Module CLI; see :func:`~repro.experiments.runner.suite_main`."""
    return suite_main(
        run_suite, "Run the cache-freshness-under-churn suite.", argv
    )


if __name__ == "__main__":
    sys.exit(main())
