"""Cache-poisoning robustness: Figures 16-18 and 19-21 (paper §6.4).

Malicious peers return corrupt Pongs; the experiments sweep the attacker
fraction for four policy stacks (Random, MR, MR*, MFS — each applied to
QueryProbe/QueryPong/CacheReplacement simultaneously, as in the paper).

Non-colluding attack (``BadPongBehavior = Dead``, Figures 16-18):
    MFS collapses (poisoned entries advertise huge NumFiles and are
    trusted); Random, MR and MR* stay robust — MR self-corrects because
    one probe zeroes a liar's NumRes.

Colluding attack (``BadPongBehavior = Bad``, Figures 19-21):
    MR collapses too: each probe of a malicious peer imports PongSize
    fresh malicious entries, faster than eviction removes them.  Only
    Random and MR* (which ignores hearsay NumRes) remain robust, with
    MR* beating Random on efficiency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    Metric,
    run_sweep,
)

#: Policy stacks compared in Figures 16-21.
POLICIES: Tuple[str, ...] = ("Random", "MR", "MR*", "MFS")

#: Attacker percentages swept on the x-axis.
BAD_PERCENTS: Tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)

#: One sweep's cells: (policy, PercentBadPeers) -> metric -> mean.
Sweep = Dict[Tuple[str, float], Dict[str, float]]

METRICS: Dict[str, Metric] = {
    "probes": "probes_per_query",
    "unsat": "unsatisfied_rate",
    "good_entries": "mean_good_entries",
}


def cells(
    profile: Profile,
    behavior: BadPongBehavior,
    cache_size: int | None = None,
) -> Dict[Tuple[str, float], Cell]:
    """(policy × PercentBadPeers) grid for one BadPongBehavior.

    Args:
        cache_size: CacheSize override.  The colluding-MR collapse needs
            the attacker population to exceed the cache capacity (entries
            dedup by address, so N_bad <= CacheSize caps the poisoning);
            reduced-scale harnesses shrink the cache accordingly.  None
            keeps the Table 2 default (100), correct at the paper's
            NetworkSize 1000.
    """
    overrides = {} if cache_size is None else {"cache_size": cache_size}
    return {
        (policy, bad): Cell.at(
            profile,
            SystemParams(
                network_size=profile.reference_size,
                percent_bad_peers=bad,
                bad_pong_behavior=behavior,
            ),
            ProtocolParams.all_same_policy(policy, **overrides),
            0xBAD + p_index * 101 + b_index,
        )
        for p_index, policy in enumerate(POLICIES)
        for b_index, bad in enumerate(BAD_PERCENTS)
    }


def _series(sweep: Sweep, metric: str) -> Dict[str, List[Tuple[float, float]]]:
    series: Dict[str, List[Tuple[float, float]]] = {}
    for policy, bad in sorted(sweep):
        series.setdefault(policy, []).append((bad, sweep[policy, bad][metric]))
    return series


def _three_figures(
    sweep: Sweep, ids: Tuple[str, str, str], collusion: bool
) -> List[ExperimentResult]:
    mode = "colluding (Bad pongs)" if collusion else "non-colluding (Dead pongs)"
    vulnerable = "MR and MFS" if collusion else "MFS only"
    rows = (  # (metric, what the figure plots, its expected shape)
        ("probes", "Average probes per query",
         f"cost rises with attacker share; worst for {vulnerable}"),
        ("unsat", "Unsatisfied queries",
         f"{vulnerable} collapse toward ~100% unsatisfied by 20% "
         "attackers; Random and MR* stay near the no-attack level"),
        ("good_entries", "Average good (live, non-malicious) link-cache entries",
         f"good-entry counts collapse for {vulnerable}"),
    )
    return [
        ExperimentResult(
            experiment_id=experiment_id,
            title=f"{what} vs PercentBadPeers — {mode}",
            series=_series(sweep, metric),
            x_label="PercentBadPeers",
            notes=notes,
        )
        for experiment_id, (metric, what, notes) in zip(ids, rows)
    ]


def run_fig16_18(
    profile: Profile,
    cache_size: int | None = None,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """Figures 16, 17, 18: the non-colluding (Dead-pong) attack."""
    sweep = run_sweep(
        cells(profile, BadPongBehavior.DEAD, cache_size), METRICS, executor
    )
    return _three_figures(sweep, ("fig16", "fig17", "fig18"), collusion=False)


def run_fig19_21(
    profile: Profile,
    cache_size: int | None = None,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """Figures 19, 20, 21: the colluding (Bad-pong) attack."""
    sweep = run_sweep(
        cells(profile, BadPongBehavior.BAD, cache_size), METRICS, executor
    )
    return _three_figures(sweep, ("fig19", "fig20", "fig21"), collusion=True)


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figures 16-21, one sweep per BadPongBehavior."""
    return run_fig16_18(profile, executor=executor) + run_fig19_21(
        profile, executor=executor
    )
