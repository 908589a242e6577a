"""Capacity-limit experiments: Figures 14 and 15 (paper §6.3).

Peers refuse probes beyond ``MaxProbesPerSecond``.  Under the load-
concentrating MR policies, the few consistently productive peers sit in
many link caches and get hammered.  Expected shapes:

* Figure 14 — good and dead probes per query stay roughly steady as the
  network grows, but *refused* probes per query increase with
  NetworkSize and with tighter capacity.
* Figure 15 — satisfaction is barely affected even when many probes are
  refused: enough other peers can answer, and the protocol's inherent
  throttling (refused ⇒ evicted ⇒ stops circulating in pongs) sheds
  load from hotspots.
"""

from __future__ import annotations

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

#: Capacity sweep from the paper's Figure 14 bar groups.
CAPACITIES: Tuple[int, ...] = (50, 10, 5, 1)

METRICS: Dict[str, Metric] = {
    "good": "good_probes_per_query",
    "refused": "refused_probes_per_query",
    "dead": "dead_probes_per_query",
    "unsat": "unsatisfied_rate",
}


def cells(profile: Profile) -> Dict[Tuple[int, int], Cell]:
    """(NetworkSize × MaxProbesPerSecond) grid under the MR policies."""
    return {
        (n, capacity): Cell.at(
            profile,
            SystemParams(network_size=n, max_probes_per_second=capacity),
            ProtocolParams.all_same_policy("MR"),
            n * 31 + capacity,
        )
        for n in profile.network_sizes
        for capacity in CAPACITIES
    }


def run_fig14(
    profile: Profile, sweep: Dict[Tuple[int, int], Dict[str, float]]
) -> ExperimentResult:
    """Figure 14: probe breakdown vs (NetworkSize, capacity), MR policies."""
    rows = tuple(
        (
            n,
            capacity,
            cell["good"],
            cell["refused"],
            cell["dead"],
        )
        for (n, capacity), cell in sorted(
            sweep.items(), key=lambda kv: (kv[0][0], -kv[0][1])
        )
    )
    return ExperimentResult(
        experiment_id="fig14",
        title="For large networks, limited capacity leads to more refused probes",
        columns=(
            "NetworkSize",
            "MaxProbes/s",
            "Good/Query",
            "Refused/Query",
            "DeadIPs/Query",
        ),
        rows=rows,
        notes=(
            "good and dead probes steady across sizes; refused probes grow "
            "with NetworkSize and with tighter capacity"
        ),
    )


def run_fig15(
    profile: Profile, sweep: Dict[Tuple[int, int], Dict[str, float]]
) -> ExperimentResult:
    """Figure 15: unsatisfaction vs capacity, one series per NetworkSize."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for (n, capacity), cell in sorted(sweep.items()):
        series.setdefault(f"N={n}", []).append(
            (float(capacity), cell["unsat"])
        )
    return ExperimentResult(
        experiment_id="fig15",
        title=(
            "Query satisfaction is not affected by capacity limits, even "
            "when a significant number of probes are refused"
        ),
        series=series,
        x_label="MaxProbesPerSecond",
        notes="unsatisfaction roughly flat in capacity for every NetworkSize",
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figures 14 and 15 from one shared sweep."""
    sweep = run_sweep(cells(profile), METRICS, executor)
    return [run_fig14(profile, sweep), run_fig15(profile, sweep)]
