"""Flexible-extent comparison: Figure 8 (paper §6.2).

Plots the cost/quality tradeoff of three search-extent mechanisms over
the same content distribution:

* **Fixed extent (Gnutella)** — a curve: every query costs exactly E
  probes; unsatisfaction is the exact probability that none of E random
  peers owns the target, averaged over a query sample.
* **Iterative deepening** — one point: re-floods at a coarse extent
  schedule, costs accumulating across rounds.
* **GUESS** — two measured points from full protocol simulations: the
  Random baseline policy, and ``QueryPong = MFS``.

Expected shape: for a given unsatisfaction level GUESS costs over an
order of magnitude fewer probes than the fixed-extent mechanism, with
iterative deepening in between (paper: GUESS+MFS ≈ 17 probes at ~8%
unsat vs ~540 fixed-extent probes; GUESS Random ≈ 99 probes at ~6% vs
~1000).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import fixed_extent_tradeoff
from repro.baselines.iterative_deepening import IterativeDeepeningSearch
from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    Metric,
    run_sweep,
)

#: The two measured GUESS points: series label -> protocol.
GUESS_POINTS: Dict[str, ProtocolParams] = {
    "GUESS Random": ProtocolParams(),
    "GUESS QueryPong=MFS": ProtocolParams(query_pong="MFS"),
}

#: A point's (x, y): average query cost, then unsatisfaction.
METRICS: Dict[str, Metric] = {
    "cost": "probes_per_query",
    "unsat": "unsatisfied_rate",
}


def cells(profile: Profile) -> Dict[str, Cell]:
    """One full-protocol cell per GUESS point, at a shared seed."""
    return {
        label: Cell.at(
            profile,
            SystemParams(network_size=profile.reference_size),
            protocol,
            0xF1608,
        )
        for label, protocol in GUESS_POINTS.items()
    }


def _log_spaced_extents(max_extent: int, points: int = 24) -> List[int]:
    """Geometric extent grid from 1 to ``max_extent`` (deduplicated)."""
    if max_extent < 1:
        raise ValueError(f"max_extent must be >= 1, got {max_extent}")
    extents = {1, max_extent}
    value = 1.0
    growth = max_extent ** (1.0 / max(1, points - 1))
    for _ in range(points):
        extents.add(max(1, min(max_extent, int(round(value)))))
        value *= growth
    return sorted(extents)


def run_fig8(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Figure 8: unsatisfaction vs average query cost for each mechanism."""
    n = profile.reference_size
    max_extent = min(profile.max_extent, n)
    rng = random.Random(0xF160_8)
    view = PopulationView.synthesize(n, rng)
    targets = view.draw_query_targets(rng, profile.baseline_queries)

    fixed_curve = fixed_extent_tradeoff(
        view, targets, _log_spaced_extents(max_extent)
    )
    fixed_series = [(float(extent), unsat) for extent, unsat in fixed_curve]

    schedule = tuple(
        e for e in (100, 250, 500, 1000) if e <= max_extent
    ) or (max_extent,)
    deepening = IterativeDeepeningSearch(view, schedule=schedule)
    itd_cost, itd_unsat = deepening.evaluate(targets, rng)

    measured = run_sweep(cells(profile), METRICS, executor)
    guess_points: Dict[str, Tuple[float, float]] = {
        label: (values["cost"], values["unsat"])
        for label, values in measured.items()
    }

    series: Dict[str, Sequence[Tuple[float, float]]] = {
        "FixedExtent(Gnutella)": fixed_series,
        "IterativeDeepening": [(itd_cost, itd_unsat)],
    }
    for label, point in guess_points.items():
        series[label] = [point]

    rows = [
        ("IterativeDeepening", itd_cost, itd_unsat),
    ] + [
        (label, cost, unsat) for label, (cost, unsat) in guess_points.items()
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title=(
            "For a given average query cost, unsatisfaction is lowest with "
            "the fine-grained flexible extent of GUESS"
        ),
        columns=("Mechanism", "Avg cost (probes)", "Unsatisfied"),
        rows=tuple(rows),
        series=series,
        x_label="Average query cost (probes)",
        notes=(
            "GUESS points sit far left of the fixed-extent curve at equal "
            "unsatisfaction (>10x cheaper); iterative deepening in between"
        ),
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """Figure 8."""
    return [run_fig8(profile, executor)]
