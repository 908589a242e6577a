"""Cache-freshness-under-churn suite (beyond the paper).

The paper's link caches learn about departures only the hard way: a
probe times out, the entry is evicted, and the probe's cost has already
been paid.  Under correlated churn the whole network pays it at once —
every survivor's cache is suddenly full of pointers at corpses.  The
:mod:`repro.freshness` layer attacks that waste from two sides:

* **push invalidation** — a departing peer's former contacts are told
  (pong-piggybacked :class:`~repro.core.messages.CacheUpdate`
  exchanges) so stale entries are purged *before* they cost a dead
  probe, and the ack's pong refreshes the vacated slot;
* **capacity-proportional cache sizing** — per-peer cache capacities
  track library size (:class:`~repro.freshness.CacheSizing`), so the
  peers everyone probes most keep the most pointers fresh.

The suite measures what each side buys, separately and together:

* ``freshness_grid`` — storm fraction × {off, invalidate, size, full}:
  satisfaction, dead probes per query with the **stale/fresh split**
  (stale = the pointer's target departed after it was acquired —
  exactly the waste invalidation can prevent), notice overhead per
  query, purge/refresh counts, and time-to-recovery.
* ``freshness_recovery`` — time-to-recovery vs storm fraction, one
  curve per mode.

All four modes of a fraction share one base seed, so the storm kills
the same peers at the same times: the stale-dead-probe delta between
the ``off`` and ``invalidate`` rows is push invalidation's doing alone
(freshness draws live on ``freshness:*`` RNG substreams).

Run via ``python -m repro.experiments.run_all --only cache_freshness``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.churn_storm import (
    SATISFACTION_WINDOW,
    STORM_FRACTIONS,
    mean_recovery,
    storm_plan,
)
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
from repro.freshness import CacheSizing, FreshnessPlan
from repro.metrics.summary import mean, ratio
from repro.observe.staleness import summarize_staleness

#: Not anchored to a paper figure; only sharing across the grid matters.
BASE_SEED = 0xF4E5

PROTOCOL = ProtocolParams(cache_size=30)

#: Median sharer holds DEFAULT_MEDIAN_FILES = 100 files, the sizing's
#: ``REFERENCE_FILES``, so a median peer keeps the base capacity; free
#: riders drop to the floor and the Pareto-tail whales are capped at 4x
#: base rather than tracking their (unbounded) libraries.
SIZING = CacheSizing(
    policy="proportional", min_capacity=5,
    max_capacity=4 * PROTOCOL.cache_size,
)

#: Invalidation tuning: budget 6 / depth 2 buys a consistent stale-dead
#: reduction at a few notices per query (notices concentrate where the
#: deaths do); deeper/wider settings (e.g. 8/3) halve stale probes but
#: roughly double the notice traffic again.
INVALIDATE = FreshnessPlan(notify_budget=6, depth=2)

#: Mode name -> FreshnessPlan (None = paper baseline), sweep order.
MODES: Dict[str, Optional[FreshnessPlan]] = {
    "off": None,
    "invalidate": INVALIDATE,
    "size": FreshnessPlan(sizing=SIZING),
    "full": INVALIDATE.with_(sizing=SIZING),
}


def cells(profile: Profile) -> Dict[Tuple[float, str], Cell]:
    """The (storm fraction, mode) grid, in sweep order.

    The storm is ``churn_storm``'s without the flash crowd: the question
    here is cache staleness, not overload, so the query rate stays flat
    and every dead probe is churn's doing.
    """
    return {
        (fraction, mode): Cell.at(
            profile,
            SystemParams(network_size=profile.network_sizes[0]),
            PROTOCOL,
            BASE_SEED,
            scenarios=storm_plan(profile, fraction, crowd=False),
            freshness=freshness,
            satisfaction_window=SATISFACTION_WINDOW,
        )
        for mode, freshness in MODES.items()
        for fraction in STORM_FRACTIONS
    }


def _mean_staleness(name: str) -> Metric:
    """Mean of one :class:`~repro.observe.staleness.StalenessSummary` field."""
    return lambda reports: mean(
        [getattr(summarize_staleness(report), name) for report in reports]
    )


def metrics(profile: Profile) -> Dict[str, Metric]:
    """``freshness_grid`` column -> report property or fold."""
    return {
        "Satisfied": "satisfaction_rate",
        "DeadIP/Query": "dead_probes_per_query",
        "StaleDead": _mean_staleness("stale_dead_probes"),
        "FreshDead": _mean_staleness("fresh_dead_probes"),
        "StaleFrac": _mean_staleness("stale_fraction"),
        "Notices/Query": lambda reports: mean(
            [ratio(r.freshness_notices, r.queries) for r in reports]
        ),
        "Purges": "freshness_purges",
        "Refresh": "freshness_refresh_imports",
        "Recovery(s)": mean_recovery(profile),
    }


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """``freshness_grid`` and ``freshness_recovery`` from one sweep."""
    measured = run_sweep(cells(profile), metrics(profile), executor)
    grid = grid_table(
        "freshness_grid",
        "Cache freshness under churn: storm fraction × mechanism",
        ("Fraction", "Mode"),
        measured,
        notes=(
            "stale dead probes (target departed after the pointer was "
            "acquired) are the waste push invalidation can prevent; "
            "'invalidate' purges them for a few notices per query, "
            "'size' concentrates capacity on the peers queries "
            "actually hit, 'full' composes both"
        ),
    )
    recovery = grid_curves(
        "freshness_recovery",
        "Time-to-recovery vs storm fraction, per freshness mode",
        measured,
        "Recovery(s)",
        label="mode={}",
        x_label="storm fraction",
        notes=(
            "push invalidation purges corpses ahead of the probe path, "
            "so post-storm caches heal faster than dead-probe eviction "
            "alone allows"
        ),
    )
    return [grid, recovery]
