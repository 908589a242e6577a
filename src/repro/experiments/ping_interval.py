"""Ping-interval / connectivity experiments: Figures 6 and 7 (paper §6.1).

To isolate the effect of Pings, queries are disabled (``QueryRate = 0``)
exactly as the paper does.  The metric is the size of the largest
connected component (LCC) of the conceptual overlay after the network has
churned for a while under a given PingInterval.

Expected shapes:

* Figure 6 — smaller PingIntervals keep the overlay connected; as the
  interval grows the overlay fragments, and *small caches fragment
  first* (few pointers, so each dead one hurts; the absolute number of
  live pointers is what carries connectivity).
* Figure 7 — at CacheSize 20, the *relative* LCC-vs-PingInterval curve
  is nearly independent of NetworkSize.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TrialFailure
from repro.experiments.executor import SerialTrialExecutor, TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import mean
from repro.sim.rng import derive_seed

#: Churn stress for the connectivity sweeps.  The paper does not restate
#: the multiplier for Figures 6-7; at the unscaled (multiplier 1)
#: Gnutella session times the overlay never fragments within the paper's
#: PingInterval range, while 0.1 reproduces the figure's regime: visible
#: fragmentation that hits the smallest caches first and deepest.
CHURN_STRESS_MULTIPLIER = 0.1

#: Figure 6 sweeps these cache sizes at the reference NetworkSize.
FIG6_CACHE_SIZES = (10, 20, 50, 100, 200, 500)

#: Figure 7 fixes CacheSize at 20 and sweeps NetworkSize.
FIG7_CACHE_SIZE = 20

#: Snapshots averaged per run (taken in the final third of the run).
SNAPSHOTS_PER_RUN = 3


def _lcc_trial(spec: tuple) -> List[float]:
    """One ping-only trial's late-run LCC snapshots (picklable worker)."""
    network_size, cache_size, ping_interval, duration, seed = spec
    system = SystemParams(
        network_size=network_size,
        query_rate=0.0,
        lifespan_multiplier=CHURN_STRESS_MULTIPLIER,
    )
    protocol = ProtocolParams(
        cache_size=min(cache_size, network_size),
        ping_interval=ping_interval,
    )
    sim = GuessSimulation(
        system,
        protocol,
        seed=seed,
        health_sample_interval=None,  # no metrics needed; LCC only
    )
    # Let churn and maintenance reach steady state, then sample the
    # LCC a few times across the final third of the run.
    sim.run(duration * 2.0 / 3.0)
    step = duration / 3.0 / SNAPSHOTS_PER_RUN
    lccs: List[float] = []
    for _ in range(SNAPSHOTS_PER_RUN):
        sim.run(step)
        lccs.append(float(sim.snapshot_overlay().largest_component_size()))
    return lccs


def measure_lcc(
    network_size: int,
    cache_size: int,
    ping_interval: float,
    *,
    duration: float,
    trials: int,
    base_seed: int = 0,
    executor: TrialExecutor | None = None,
) -> float:
    """Mean largest-connected-component size for one configuration.

    Runs a ping-only network (no queries) and averages the LCC over
    several late-run snapshots and over trials.  Trials are independent
    (seeds derived here, snapshots concatenated in trial order), so a
    process-backed ``executor`` yields the identical mean; a trial a
    supervised executor quarantined drops out of it.
    """
    specs = [
        (
            network_size,
            cache_size,
            ping_interval,
            duration,
            derive_seed(base_seed, f"lcc:{trial}"),
        )
        for trial in range(trials)
    ]
    chunks = (executor or SerialTrialExecutor()).map(_lcc_trial, specs)
    done = [chunk for chunk in chunks if not isinstance(chunk, TrialFailure)]
    return mean([lcc for chunk in done for lcc in chunk])


def run_fig6(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 6: LCC vs PingInterval, one series per CacheSize."""
    n = profile.reference_size
    series: Dict[str, List[Tuple[float, float]]] = {}
    for cache in FIG6_CACHE_SIZES:
        if cache > n:
            continue
        label = f"CacheSize={cache}"
        for interval in profile.ping_intervals:
            lcc = measure_lcc(
                n,
                cache,
                interval,
                duration=profile.total_time,
                trials=profile.trials,
                base_seed=cache * 7919,
                executor=executor,
            )
            series.setdefault(label, []).append((interval, lcc))
    return ExperimentResult(
        experiment_id="fig6",
        title="Small cache sizes are most negatively affected by long ping intervals",
        series=series,
        x_label="PingInterval",
        notes=(
            "LCC shrinks as PingInterval grows; the smallest caches "
            "fragment first (absolute live-pointer count drives connectivity)"
        ),
    )


def run_fig7(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 7: relative LCC vs PingInterval, one series per NetworkSize."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for n in profile.network_sizes:
        label = f"N={n}"
        for interval in profile.ping_intervals:
            lcc = measure_lcc(
                n,
                FIG7_CACHE_SIZE,
                interval,
                duration=profile.total_time,
                trials=profile.trials,
                base_seed=n * 104729,
                executor=executor,
            )
            series.setdefault(label, []).append((interval, lcc / n))
    return ExperimentResult(
        experiment_id="fig7",
        title="Selection of ping interval is largely independent of network size",
        series=series,
        x_label="PingInterval",
        notes=(
            "relative LCC curves for different NetworkSizes roughly "
            "coincide at CacheSize 20"
        ),
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figures 6 and 7."""
    return [run_fig6(profile, executor), run_fig7(profile, executor)]
