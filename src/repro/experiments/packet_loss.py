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

Run via ``python -m repro.experiments.run_all --suite packet_loss`` or
directly::

    python -m repro.experiments.packet_loss --profile smoke --workers 2

The module CLI's ``--verify-parallel`` flag re-runs the suite serially
and on a process pool and fails unless the rendered reports are
byte-identical — the fault subsystem's serial-vs-parallel determinism
check used by the ``suite-smoke`` CI job.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor, get_executor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    ExperimentResult,
    averaged,
    run_guess_config,
    suite_main,
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


def _measure_cell(
    profile: Profile,
    loss: float,
    retries: int,
    executor: TrialExecutor | None = None,
) -> Dict[str, float]:
    """Run one (loss rate, retry budget) cell and fold its metrics."""
    protocol = ProtocolParams(probe_retries=retries)
    reports = run_guess_config(
        SystemParams(network_size=profile.reference_size),
        protocol,
        duration=profile.duration,
        warmup=profile.warmup,
        trials=profile.trials,
        base_seed=BASE_SEED,
        faults=FaultPlan(loss_rate=loss),
        executor=executor,
    )
    return {
        "satisfied": averaged(reports, "satisfaction_rate"),
        "results": averaged(reports, "results_per_query"),
        "probes": averaged(reports, "probes_per_query"),
        "dead": averaged(reports, "dead_probes_per_query"),
        "spurious": averaged(reports, "spurious_timeouts_per_query"),
        "recovery": averaged(reports, "retry_recovery_rate"),
        "live": averaged(reports, "mean_fraction_live"),
        "wrongful": averaged(reports, "wrongful_evictions"),
    }


def _sweep(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> Dict[Tuple[float, int], Dict[str, float]]:
    """The full loss × retry grid, cells in deterministic sweep order."""
    return {
        (loss, retries): _measure_cell(profile, loss, retries, executor)
        for retries in RETRY_BUDGETS
        for loss in LOSS_RATES
    }


def run_loss_grid(
    profile: Profile,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """Both results from one grid sweep (the cells are shared)."""
    cells = _sweep(profile, executor)
    rows = tuple(
        (
            loss,
            retries,
            cell["satisfied"],
            cell["results"],
            cell["probes"],
            cell["dead"],
            cell["spurious"],
            cell["recovery"],
            cell["live"],
            cell["wrongful"],
        )
        for (loss, retries), cell in cells.items()
    )
    grid = ExperimentResult(
        experiment_id="loss_grid",
        title="GUESS under packet loss: loss rate × retry budget",
        columns=(
            "LossRate",
            "Retries",
            "Satisfied",
            "Results/Query",
            "Probes/Query",
            "DeadIPs/Query",
            "Spurious/Query",
            "RecoveryRate",
            "FractionLive",
            "WrongfulEvict",
        ),
        rows=rows,
        notes=(
            "loss inflates DeadIPs with spurious timeouts and wrongly "
            "evicts live entries (FractionLive sags); retries claw back "
            "satisfaction at the price of extra probes"
        ),
    )
    satisfaction = ExperimentResult(
        experiment_id="loss_satisfaction",
        title="Query satisfaction vs packet loss, per retry budget",
        series={
            f"retries={retries}": [
                (loss, cells[(loss, retries)]["satisfied"])
                for loss in LOSS_RATES
            ]
            for retries in RETRY_BUDGETS
        },
        x_label="loss rate",
        notes=(
            "satisfaction degrades with loss; a small retry budget "
            "recovers most of it"
        ),
    )
    return [grid, satisfaction]


def run_suite(
    profile: Profile,
    workers: int = 1,
    executor: TrialExecutor | None = None,
) -> List[ExperimentResult]:
    """``loss_grid`` and ``loss_satisfaction``.

    An explicit ``executor`` (e.g. the supervised executor shared by
    ``run_all --supervise``) overrides ``workers`` and stays open for
    the caller to close.
    """
    if executor is None:
        with get_executor(workers) as owned:
            return run_suite(profile, executor=owned)
    return run_loss_grid(profile, executor)


def main(argv: List[str] | None = None) -> int:
    """Module CLI; see :func:`~repro.experiments.runner.suite_main`."""
    return suite_main(
        run_suite, "Run the packet-loss robustness suite.", argv
    )


if __name__ == "__main__":
    sys.exit(main())
