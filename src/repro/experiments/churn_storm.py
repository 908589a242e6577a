"""Churn-storm resilience suite (beyond the paper).

The paper models *independent* peer churn: lifetimes are drawn per peer,
so departures are uncorrelated and the link cache heals continuously.
Real overlays also see *correlated* failures — a provider outage takes
out a large slice of the network at once, and the survivors are hit by a
flash crowd of queries at the exact moment their caches are full of dead
entries.  This suite composes both (:class:`~repro.resilience.ChurnStorm`
plus :class:`~repro.resilience.FlashCrowd`) and measures how much the
resilience layer — per-entry circuit breakers, per-peer retry budgets,
and graded ping shedding — buys back:

* ``storm_grid`` — storm fraction × {mechanisms off, on}: satisfaction,
  results/query, the eviction split (refusal- vs dead-driven), breaker
  suppressions, denied retries, shed pings, and time-to-recovery.
* ``storm_recovery`` — time-to-recovery vs storm fraction, one curve per
  mechanisms setting.

Time-to-recovery derives from the collector's windowed satisfaction
channel: the pre-storm windows pool into a baseline rate and recovery is
the first post-storm window (with enough queries to be meaningful) whose
rate is back within 90% of that baseline.

Both cells of a pair share one base seed, so the storm kills the same
peers and the crowd re-times the same queries: the delta between the
mechanisms-off and mechanisms-on rows is the resilience layer's doing
alone (scenario draws live on ``scenario:*`` RNG substreams and the
mechanisms themselves draw no RNG at all).

Run via ``python -m repro.experiments.run_all --suite churn_storm`` or
directly::

    python -m repro.experiments.churn_storm --profile smoke --workers 2

The module CLI's ``--verify-parallel`` flag re-runs the suite serially
and on a process pool and fails unless the rendered reports are
byte-identical — the resilience subsystem's serial-vs-parallel
determinism check used by the ``suite-smoke`` CI job.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

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
from repro.metrics.summary import mean
from repro.resilience import (
    ChurnStorm,
    FlashCrowd,
    ResiliencePolicy,
    ScenarioPlan,
    baseline_rate,
    time_to_recovery,
)
from repro.resilience.recovery import to_windows

#: Fraction of the live population the storm removes (0 would be a noop).
STORM_FRACTIONS: Tuple[float, ...] = (0.3, 0.5)

#: Query-arrival multiplier during the flash crowd that rides the storm.
CROWD_MULTIPLIER = 5.0

#: Seconds over which the storm's departures spread.
STORM_WIDTH = 20.0

#: Width of the windowed satisfaction channel feeding time-to-recovery.
SATISFACTION_WINDOW = 25.0

#: Recovered = windowed satisfaction back within this much of baseline.
RECOVERY_THRESHOLD = 0.9

#: Windows with fewer queries than this are too sparse to call recovery.
MIN_WINDOW_QUERIES = 5

#: Distinct from the other suites: storm cells are not anchored to any
#: paper figure, so the seed just has to be shared across the grid.
BASE_SEED = 0xC0B

#: A deliberately stressed configuration: a modest per-peer probe window
#: so the flash crowd actually saturates survivors, retries enabled so
#: the retry budget has something to cap, and do_backoff off so refusal
#: evictions (the breaker's counterfactual) are visible.
PROTOCOL = ProtocolParams(cache_size=30, probe_retries=2, do_backoff=False)
MAX_PROBES_PER_SECOND = 4


def storm_plan(profile: Profile, fraction: float) -> ScenarioPlan:
    """The suite's scenario: one storm with a flash crowd riding it.

    The storm lands 30% of the way into the measured window and the
    crowd persists from the storm's onset to the end of the run, so the
    recovery has to happen *under* elevated load.
    """
    start = profile.warmup + 0.3 * profile.duration
    return ScenarioPlan(
        storms=(
            ChurnStorm(start=start, width=STORM_WIDTH, fraction=fraction),
        ),
        crowds=(
            FlashCrowd(
                start=start,
                end=profile.total_time,
                multiplier=CROWD_MULTIPLIER,
            ),
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
    armed: bool,
    executor: TrialExecutor | None = None,
) -> Dict[str, float]:
    """Run one (storm fraction, mechanisms) cell and fold its metrics."""
    plan = storm_plan(profile, fraction)
    reports = run_guess_config(
        SystemParams(
            network_size=profile.network_sizes[0],
            max_probes_per_second=MAX_PROBES_PER_SECOND,
        ),
        PROTOCOL,
        duration=profile.duration,
        warmup=profile.warmup,
        trials=profile.trials,
        base_seed=BASE_SEED,
        scenarios=plan,
        resilience=ResiliencePolicy.all_on() if armed else None,
        satisfaction_window=SATISFACTION_WINDOW,
        executor=executor,
    )
    recoveries = [
        _recovery_seconds(report, plan)
        for report in reports
        if not isinstance(report, TrialFailure)
    ]
    return {
        "satisfied": averaged(reports, "satisfaction_rate"),
        "results": averaged(reports, "results_per_query"),
        "refusal_evict": averaged(reports, "refusal_evictions"),
        "dead_evict": averaged(reports, "dead_evictions"),
        "suppressed": averaged(reports, "suppressed_probes"),
        "denied": averaged(reports, "retries_denied"),
        "shed": averaged(reports, "pings_shed"),
        "recovery": mean(recoveries),
    }


def _sweep(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> Dict[Tuple[float, bool], Dict[str, float]]:
    """The fraction × mechanisms grid, cells in deterministic order."""
    return {
        (fraction, armed): _measure_cell(profile, fraction, armed, executor)
        for armed in (False, True)
        for fraction in STORM_FRACTIONS
    }


def run_storm_grid(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """Both results from one grid sweep (the cells are shared)."""
    cells = _sweep(profile, executor)
    rows = tuple(
        (
            fraction,
            "on" if armed else "off",
            cell["satisfied"],
            cell["results"],
            cell["refusal_evict"],
            cell["dead_evict"],
            cell["suppressed"],
            cell["denied"],
            cell["shed"],
            cell["recovery"],
        )
        for (fraction, armed), cell in cells.items()
    )
    grid = ExperimentResult(
        experiment_id="storm_grid",
        title="GUESS under churn storms: storm fraction × resilience",
        columns=(
            "Fraction",
            "Mechanisms",
            "Satisfied",
            "Results/Query",
            "RefusalEvict",
            "DeadEvict",
            "Suppressed",
            "Denied",
            "Shed",
            "Recovery(s)",
        ),
        rows=rows,
        notes=(
            "the storm craters windowed satisfaction; breakers convert "
            "refusal evictions into suppressions, budgets cap retry "
            "amplification, shedding keeps query capacity — together "
            "they shorten time-to-recovery"
        ),
    )
    recovery = ExperimentResult(
        experiment_id="storm_recovery",
        title="Time-to-recovery vs storm fraction, per mechanisms setting",
        series={
            f"mechanisms={'on' if armed else 'off'}": [
                (fraction, cells[(fraction, armed)]["recovery"])
                for fraction in STORM_FRACTIONS
            ]
            for armed in (False, True)
        },
        x_label="storm fraction",
        notes=(
            "recovery takes longer the larger the storm; the resilience "
            "layer flattens the curve"
        ),
    )
    return [grid, recovery]


def run_suite(
    profile: Profile,
    workers: int = 1,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """``storm_grid`` and ``storm_recovery``.

    An explicit ``executor`` (e.g. the supervised executor shared by
    ``run_all --supervise``) overrides ``workers`` and stays open for
    the caller to close.
    """
    if executor is None:
        with get_executor(workers) as owned:
            return run_suite(profile, executor=owned)
    return run_storm_grid(profile, executor)


def main(argv: List[str] | None = None) -> int:
    """Module CLI; see :func:`~repro.experiments.runner.suite_main`."""
    return suite_main(
        run_suite, "Run the churn-storm resilience suite.", argv
    )


if __name__ == "__main__":
    sys.exit(main())
