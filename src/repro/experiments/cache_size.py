"""Cache-size experiments: Table 3 and Figures 3, 4, 5 (paper §6.1).

Setup per the paper: Random policies everywhere, ``LifespanMultiplier =
0.2`` to stress maintenance, CacheSize swept from very small to the
network size, across several NetworkSizes.

Expected shapes:

* Figure 3 — probes/query grows with CacheSize at every NetworkSize.
* Figure 4 — unsatisfaction is high for tiny caches, reaches a minimum
  at moderate CacheSize (paper: ~20-70), then *rises again* for large
  caches; the optimal cache size barely moves with NetworkSize.
* Figure 5 — the explanation: dead probes grow with CacheSize while good
  probes peak at a moderate size (maintenance spread too thin).
* Table 3 — fraction of live entries falls with CacheSize while the
  absolute number of live entries saturates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    Metric,
    run_sweep,
)

#: The paper stresses cache maintenance with short lifetimes.
LIFESPAN_MULTIPLIER = 0.2

#: Table 3's cache-size rows.
TABLE3_CACHE_SIZES = (10, 20, 50, 100, 200, 500)

SweepKey = Tuple[int, int]  # (network_size, cache_size)

#: The trial-averaged values every consumer of the sweep needs.
METRICS: Dict[str, Metric] = {
    "probes_per_query": "probes_per_query",
    "good_per_query": "good_probes_per_query",
    "dead_per_query": "dead_probes_per_query",
    "unsatisfied": "unsatisfied_rate",
    "fraction_live": "mean_fraction_live",
    "absolute_live": "mean_absolute_live",
    "cache_fill": "mean_cache_fill",
}


def cells(
    profile: Profile, network_sizes: Tuple[int, ...] | None = None
) -> Dict[SweepKey, Cell]:
    """The (NetworkSize × CacheSize) grid, shared across the figures.

    CacheSize is clamped to the network size (clamped duplicates are
    one cell).
    """
    return {
        (n, cache): Cell.at(
            profile,
            SystemParams(
                network_size=n, lifespan_multiplier=LIFESPAN_MULTIPLIER
            ),
            ProtocolParams(cache_size=cache),
            hash_seed(n, cache),
        )
        for n in network_sizes or profile.network_sizes
        for cache in dict.fromkeys(min(c, n) for c in profile.cache_sizes)
    }


def hash_seed(n: int, cache: int) -> int:
    """Stable per-cell base seed so sweep cells are independent."""
    return (n * 1_000_003 + cache) & 0x7FFFFFFF


def run_table3(
    profile: Profile, sweep: Dict[SweepKey, dict] | None = None
) -> ExperimentResult:
    """Table 3: live-entry breakdown vs CacheSize at the reference size."""
    n = profile.reference_size
    cache_sizes = [min(c, n) for c in TABLE3_CACHE_SIZES if c <= n] or [
        min(TABLE3_CACHE_SIZES[0], n)
    ]
    if sweep is None:
        narrowed = replace(
            profile, cache_sizes=tuple(dict.fromkeys(cache_sizes))
        )
        sweep = run_sweep(cells(narrowed, network_sizes=(n,)), METRICS)
    rows = []
    for cache in dict.fromkeys(cache_sizes):
        cell = sweep.get((n, cache))
        if cell is None:
            continue
        rows.append((cache, cell["fraction_live"], cell["absolute_live"]))
    return ExperimentResult(
        experiment_id="table3",
        title="Breakdown of live cache entries for varying cache sizes",
        columns=("CacheSize", "Fraction Live", "Absolute Live"),
        rows=tuple(rows),
        notes=(
            "fraction live falls as CacheSize grows; absolute live entries "
            "rise then saturate"
        ),
    )


def run_fig3(
    profile: Profile, sweep: Dict[SweepKey, dict] | None = None
) -> ExperimentResult:
    """Figure 3: probes/query vs CacheSize, one series per NetworkSize."""
    if sweep is None:
        sweep = run_sweep(cells(profile), METRICS)
    series = _series_by_network(sweep, "probes_per_query")
    return ExperimentResult(
        experiment_id="fig3",
        title="Number of probes increases as cache size increases",
        series=series,
        x_label="CacheSize",
        notes="monotone-increasing probes/query with CacheSize, all sizes",
    )


def run_fig4(
    profile: Profile, sweep: Dict[SweepKey, dict] | None = None
) -> ExperimentResult:
    """Figure 4: unsatisfaction vs CacheSize, one series per NetworkSize."""
    if sweep is None:
        sweep = run_sweep(cells(profile), METRICS)
    series = _series_by_network(sweep, "unsatisfied")
    return ExperimentResult(
        experiment_id="fig4",
        title="Unsatisfaction experiences a minimum at moderate cache values",
        series=series,
        x_label="CacheSize",
        notes=(
            "high at tiny caches, minimum around CacheSize 20-70, rising "
            "again at large caches; optimum insensitive to NetworkSize"
        ),
    )


def run_fig5(
    profile: Profile, sweep: Dict[SweepKey, dict] | None = None
) -> ExperimentResult:
    """Figure 5: dead vs good probes per query at the reference size."""
    n = profile.reference_size
    if sweep is None:
        sweep = run_sweep(cells(profile, network_sizes=(n,)), METRICS)
    dead = []
    good = []
    for (net, cache), cell in sorted(sweep.items()):
        if net != n:
            continue
        dead.append((cache, cell["dead_per_query"]))
        good.append((cache, cell["good_per_query"]))
    return ExperimentResult(
        experiment_id="fig5",
        title=(
            "Dead probes increase with cache size; good probes peak at a "
            "moderate cache value"
        ),
        series={"Dead": dead, "Good": good},
        x_label="CacheSize",
        notes=(
            "dead probes rise sharply then level; good probes peak near "
            "CacheSize ~20 and do not grow with larger caches"
        ),
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Table 3 + Figures 3-5 from a single shared sweep."""
    sweep = run_sweep(cells(profile), METRICS, executor)
    reference_only = {
        key: value
        for key, value in sweep.items()
        if key[0] == profile.reference_size
    }
    return [
        run_table3(profile, reference_only),
        run_fig3(profile, sweep),
        run_fig4(profile, sweep),
        run_fig5(profile, reference_only),
    ]


def _series_by_network(
    sweep: Dict[SweepKey, dict], metric: str
) -> Dict[str, List[Tuple[float, float]]]:
    series: Dict[str, List[Tuple[float, float]]] = {}
    for (n, cache), cell in sorted(sweep.items()):
        series.setdefault(f"N={n}", []).append((cache, cell[metric]))
    return series
