"""Packet-loss robustness suite (beyond the paper).

The paper evaluates GUESS on a perfectly reliable UDP substrate: a probe
times out only when its target is dead.  Real networks lose packets, and
for a connectionless protocol a lost Pong is *indistinguishable* from a
dead peer — every loss corrupts the DeadIPs accounting, wrongly evicts a
live link-cache entry, and pollutes the pongs that entry would have
seeded.  This suite measures that corruption and how much a retry budget
buys back:

* ``loss_grid`` — the full loss-rate × retry-budget grid: satisfaction,
  results/query, probes/query, DeadIPs/query split into *true* dead
  probes and *spurious* timeouts, retry recovery rate, link-cache live
  fraction, and wrongful evictions (query + ping paths).
* ``loss_satisfaction`` — satisfaction rate vs loss rate, one curve per
  retry budget.

Anchoring: the ``loss=0, retries=0`` cell uses the same ``base_seed``
(0x909), default :class:`~repro.core.params.ProtocolParams`, and system
scale as the policy-comparison suite's Random QueryProbe cell, so a
fault-free sweep reproduces those baseline numbers exactly — the suite's
zero point is pinned to the paper reproduction, not merely near it.

All cells share one base seed, so every (loss, retries) pair sees the
same peers, lifetimes, and query workload: differences between cells are
the fault model's doing alone (fault draws live on ``fault:*`` RNG
substreams and cannot perturb the protocol streams).

Run via ``python -m repro.experiments.run_all --only packet_loss``.
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
    grid_curves,
    grid_table,
    run_sweep,
)
from repro.faults.plan import FaultPlan

#: Per-probe loss rates swept (0 anchors the fault-free baseline).
LOSS_RATES: Tuple[float, ...] = (0.0, 0.05, 0.20)

#: Retry budgets swept (extra sends after a timeout; 0 = paper behaviour).
RETRY_BUDGETS: Tuple[int, ...] = (0, 2)

#: Shared with policy_comparison's fig9 Random cell: same seed + same
#: default protocol makes the (loss=0, retries=0) cell reproduce the
#: baseline numbers bit-for-bit.
BASE_SEED = 0x909

#: ``loss_grid`` column -> the report property averaged into it.
METRICS: Dict[str, Metric] = {
    "Satisfied": "satisfaction_rate",
    "Results/Query": "results_per_query",
    "Probes/Query": "probes_per_query",
    "DeadIPs/Query": "dead_probes_per_query",
    "Spurious/Query": "spurious_timeouts_per_query",
    "RecoveryRate": "retry_recovery_rate",
    "FractionLive": "mean_fraction_live",
    "WrongfulEvict": "wrongful_evictions",
}


def cells(profile: Profile) -> Dict[Tuple[float, int], Cell]:
    """The (loss rate, retry budget) grid, in sweep order."""
    return {
        (loss, retries): Cell.at(
            profile,
            SystemParams(network_size=profile.reference_size),
            ProtocolParams(probe_retries=retries),
            BASE_SEED,
            faults=FaultPlan(loss_rate=loss),
        )
        for retries in RETRY_BUDGETS
        for loss in LOSS_RATES
    }


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """``loss_grid`` and ``loss_satisfaction`` from one sweep."""
    measured = run_sweep(cells(profile), METRICS, executor)
    grid = grid_table(
        "loss_grid",
        "GUESS under packet loss: loss rate × retry budget",
        ("LossRate", "Retries"),
        measured,
        notes=(
            "loss inflates DeadIPs with spurious timeouts and wrongly "
            "evicts live entries (FractionLive sags); retries claw back "
            "satisfaction at the price of extra probes"
        ),
    )
    satisfaction = grid_curves(
        "loss_satisfaction",
        "Query satisfaction vs packet loss, per retry budget",
        measured,
        "Satisfied",
        label="retries={}",
        x_label="loss rate",
        notes=(
            "satisfaction degrades with loss; a small retry budget "
            "recovers most of it"
        ),
    )
    return [grid, satisfaction]
