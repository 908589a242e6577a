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

Run via ``python -m repro.experiments.run_all --only churn_storm``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    Metric,
    grid_curves,
    grid_table,
    run_sweep,
)
from repro.metrics.collectors import SimulationReport
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

#: Mechanisms setting -> resilience policy (None = paper behaviour).
MECHANISMS: Dict[str, Optional[ResiliencePolicy]] = {
    "off": None,
    "on": ResiliencePolicy.all_on(),
}


def storm_start(profile: Profile) -> float:
    """The storm lands 30% of the way into the measured window."""
    return profile.warmup + 0.3 * profile.duration


def storm_plan(
    profile: Profile, fraction: float, crowd: bool = True
) -> ScenarioPlan:
    """One storm, by default with a flash crowd riding it.

    The crowd persists from the storm's onset to the end of the run, so
    the recovery has to happen *under* elevated load.
    """
    start = storm_start(profile)
    rider = FlashCrowd(
        start=start, end=profile.total_time, multiplier=CROWD_MULTIPLIER
    )
    return ScenarioPlan(
        storms=(
            ChurnStorm(start=start, width=STORM_WIDTH, fraction=fraction),
        ),
        crowds=(rider,) if crowd else (),
    )


def mean_recovery(profile: Profile) -> Metric:
    """The time-to-recovery metric (a trial that never recovers is inf)."""
    start = storm_start(profile)

    def metric(reports: Sequence[SimulationReport]) -> float:
        seconds = []
        for report in reports:
            windows = to_windows(report.satisfaction_windows)
            seconds.append(time_to_recovery(
                windows,
                after=start + STORM_WIDTH,
                baseline=baseline_rate(windows, before=start),
                threshold=RECOVERY_THRESHOLD,
                min_queries=MIN_WINDOW_QUERIES,
            ))
        return mean(seconds)

    return metric


def cells(profile: Profile) -> Dict[Tuple[float, str], Cell]:
    """The (storm fraction, mechanisms) grid, in sweep order."""
    return {
        (fraction, setting): Cell.at(
            profile,
            SystemParams(
                network_size=profile.network_sizes[0],
                max_probes_per_second=MAX_PROBES_PER_SECOND,
            ),
            PROTOCOL,
            BASE_SEED,
            scenarios=storm_plan(profile, fraction),
            resilience=policy,
            satisfaction_window=SATISFACTION_WINDOW,
        )
        for setting, policy in MECHANISMS.items()
        for fraction in STORM_FRACTIONS
    }


def metrics(profile: Profile) -> Dict[str, Metric]:
    """``storm_grid`` column -> report property or fold."""
    return {
        "Satisfied": "satisfaction_rate",
        "Results/Query": "results_per_query",
        "RefusalEvict": "refusal_evictions",
        "DeadEvict": "dead_evictions",
        "Suppressed": "suppressed_probes",
        "Denied": "retries_denied",
        "Shed": "pings_shed",
        "Recovery(s)": mean_recovery(profile),
    }


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """``storm_grid`` and ``storm_recovery`` from one sweep."""
    measured = run_sweep(cells(profile), metrics(profile), executor)
    grid = grid_table(
        "storm_grid",
        "GUESS under churn storms: storm fraction × resilience",
        ("Fraction", "Mechanisms"),
        measured,
        notes=(
            "the storm craters windowed satisfaction; breakers convert "
            "refusal evictions into suppressions, budgets cap retry "
            "amplification, shedding keeps query capacity — together "
            "they shorten time-to-recovery"
        ),
    )
    recovery = grid_curves(
        "storm_recovery",
        "Time-to-recovery vs storm fraction, per mechanisms setting",
        measured,
        "Recovery(s)",
        label="mechanisms={}",
        x_label="storm fraction",
        notes=(
            "recovery takes longer the larger the storm; the resilience "
            "layer flattens the curve"
        ),
    )
    return [grid, recovery]
