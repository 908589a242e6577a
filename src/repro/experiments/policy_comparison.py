"""Basic policy comparison: Figures 9-12 (paper §6.2).

One policy type is varied at a time, everything else held at the Table
1/2 defaults (all other policies Random; PingProbe/PingPong stay Random
throughout, as the paper fixes them).

Expected shapes:

* Figure 9 (QueryProbe) — modest effect (≤ ~25% cost change).
* Figure 10 (QueryPong) — large effect: MFS cuts probes/query by ~4x;
  MR close behind.
* Figure 11 (CacheReplacement) — largest effect: LFS cuts cost >5x;
  MRU eviction is pathological (floods the cache with stale entries →
  dead probes dominate).
* Figure 12 (QueryPong, unsatisfaction) — all policies land in the
  6-14% band; the ~6% floor is queries for items nobody holds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    ExperimentResult,
    averaged,
    run_guess_config,
)

ORDERING_POLICIES = ("Random", "MRU", "LRU", "MFS", "MR")
REPLACEMENT_POLICIES = ("Random", "LRU", "MRU", "LFS", "LR")


def _measure(
    profile: Profile,
    protocol: ProtocolParams,
    base_seed: int,
    executor: TrialExecutor | None = None,
) -> Dict[str, float]:
    reports = run_guess_config(
        SystemParams(network_size=profile.reference_size),
        protocol,
        duration=profile.duration,
        warmup=profile.warmup,
        trials=profile.trials,
        base_seed=base_seed,
        executor=executor,
    )
    return {
        "good": averaged(reports, "good_probes_per_query"),
        "dead": averaged(reports, "dead_probes_per_query"),
        "total": averaged(reports, "probes_per_query"),
        "unsat": averaged(reports, "unsatisfied_rate"),
    }


def _policy_sweep(
    profile: Profile,
    role: str,
    policies: Tuple[str, ...],
    seed_salt: int,
    executor: TrialExecutor | None = None,
) -> Dict[str, Dict[str, float]]:
    """Measure one protocol role across its policy menu."""
    results: Dict[str, Dict[str, float]] = {}
    for index, policy in enumerate(policies):
        protocol = ProtocolParams(**{role: policy})
        results[policy] = _measure(
            profile, protocol, base_seed=seed_salt + index, executor=executor
        )
    return results


def _probe_breakdown_result(
    experiment_id: str,
    title: str,
    results: Dict[str, Dict[str, float]],
    notes: str,
) -> ExperimentResult:
    rows = tuple(
        (policy, cell["good"], cell["dead"], cell["total"])
        for policy, cell in results.items()
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=("Policy", "Good Probes/Query", "DeadIPs/Query", "Total"),
        rows=rows,
        notes=notes,
    )


def run_fig9(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 9: probes/query for each QueryProbe policy."""
    results = _policy_sweep(
        profile, "query_probe", ORDERING_POLICIES, 0x909, executor
    )
    return _probe_breakdown_result(
        "fig9",
        "Probes/Query for different QueryProbe policies",
        results,
        "QueryProbe changes cost by at most ~25%; smallest lever of the three",
    )


def run_fig10_12(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figures 10 and 12 share the QueryPong sweep."""
    results = _policy_sweep(
        profile, "query_pong", ORDERING_POLICIES, 0xA10, executor
    )
    fig10 = _probe_breakdown_result(
        "fig10",
        "Probes/Query for different QueryPong policies",
        results,
        "MFS cuts cost ~4x vs Random; MR close behind",
    )
    fig12 = ExperimentResult(
        experiment_id="fig12",
        title="Percentage of queries not satisfied, per QueryPong policy",
        columns=("Policy", "Unsatisfied"),
        rows=tuple(
            (policy, cell["unsat"]) for policy, cell in results.items()
        ),
        notes="all policies within ~6-14%; ~6% is the no-owner floor",
    )
    return [fig10, fig12]


def run_fig11(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 11: probes/query for each CacheReplacement policy."""
    results = _policy_sweep(
        profile, "cache_replacement", REPLACEMENT_POLICIES, 0xB11, executor
    )
    return _probe_breakdown_result(
        "fig11",
        "Probes/Query for different CacheReplacement policies",
        results,
        "LFS cuts cost >5x vs Random; MRU eviction floods caches with "
        "stale entries (dead probes dominate)",
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figures 9, 10, 11, 12."""
    fig10, fig12 = run_fig10_12(profile, executor)
    return [
        run_fig9(profile, executor),
        fig10,
        run_fig11(profile, executor),
        fig12,
    ]
