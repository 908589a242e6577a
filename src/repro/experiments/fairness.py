"""Fairness / load distribution: Figure 13 (paper §6.3).

Peers from one run are ranked by probes received over their lifetimes,
for four QueryProbe/CacheReplacement combinations.  Expected shape:

* MFS/LFS and MR/LR concentrate load on a few peers (steep head);
* Random/Random is much flatter — but its *total* probe volume is ~8x
  the MFS/LFS total, so fairness trades against efficiency;
* MRU/LRU sits in between with a high total (stale caches waste probes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    Metric,
    run_sweep,
)
from repro.metrics.load import LoadDistribution, merge_loads

#: The figure's QueryProbe/CacheReplacement combinations.
COMBOS: Tuple[Tuple[str, str], ...] = (
    ("Random", "Random"),
    ("MFS", "LFS"),
    ("MR", "LR"),
    ("MRU", "LRU"),
)

#: Ranked points kept per series (log-thinned like the paper's x-axis).
SERIES_POINTS = 40

#: Per-peer loads merged across the combo's trials.
METRICS: Dict[str, Metric] = {
    "load": lambda reports: LoadDistribution(
        merge_loads([report.loads for report in reports])
    ),
}


def cells(profile: Profile) -> Dict[str, Cell]:
    """One cell per policy combination, keyed by its series label."""
    return {
        f"{probe}/{replacement}": Cell.at(
            profile,
            SystemParams(network_size=profile.reference_size),
            ProtocolParams(
                query_probe=probe,
                query_pong=probe,
                cache_replacement=replacement,
            ),
            0xF13 + index,
        )
        for index, (probe, replacement) in enumerate(COMBOS)
    }


def run_fig13(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 13: ranked load per policy combination."""
    series: Dict[str, Sequence[Tuple[float, float]]] = {}
    rows: List[tuple] = []
    measured = run_sweep(cells(profile), METRICS, executor)
    for label, values in measured.items():
        dist = values["load"]
        series[label] = [
            (float(rank), float(load))
            for rank, load in dist.series(max_points=SERIES_POINTS)
        ]
        rows.append(
            (
                label,
                dist.total,
                dist.top_share(0.01),
                round(dist.gini(), 3),
            )
        )
    return ExperimentResult(
        experiment_id="fig13",
        title=(
            "Ranked distribution of load (probes received) for QueryProbe/"
            "CacheReplacement combinations"
        ),
        columns=("Combo", "Total probes", "Top-1% share", "Gini"),
        rows=tuple(rows),
        series=series,
        x_label="Rank",
        notes=(
            "MFS/LFS and MR/LR steep (hotspots); Random/Random flat but "
            "with ~8x the total probes of MFS/LFS"
        ),
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figure 13."""
    return [run_fig13(profile, executor)]
