"""Staleness instruments: the fresh-vs-stale dead-probe split, summarised.

Every dead probe (query path or maintenance ping) is charged to one of
two causes by the omniscient accounting in
:mod:`repro.metrics.collectors`:

* **stale** — the pointer's target departed *after* the owner acquired
  it.  The owner held a once-valid pointer that silently rotted; this is
  exactly the waste push invalidation (:mod:`repro.freshness`) can
  prevent by purging the entry when the target departs.
* **fresh** (dead-on-arrival) — the pointer was already dead when
  acquired: imported off another peer's stale pong, a poisoned pong
  naming a corpse, or a ghost address that never existed.  No notice at
  departure time could have saved these.

:func:`summarize_staleness` folds a report into a
:class:`StalenessSummary`, the row format the cache-freshness experiment
suite prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.collectors import SimulationReport
from repro.metrics.summary import ratio


@dataclass(frozen=True, slots=True)
class StalenessSummary:
    """One run's dead-probe attribution, ready for a results table.

    Attributes:
        dead_probes: all dead probes (query + ping paths).
        stale_dead_probes: the preventable subset (pointer outlived its
            target).
        fresh_dead_probes: the dead-on-arrival remainder.
        stale_fraction: ``stale / dead`` (0.0 when nothing died).
        stale_per_query: stale dead probes per executed query.
        notices: CacheUpdate sends (0 without push invalidation).
        purges: notices whose receiver actually held the stale entry.
    """

    dead_probes: int
    stale_dead_probes: int
    fresh_dead_probes: int
    stale_fraction: float
    stale_per_query: float
    notices: int
    purges: int


def summarize_staleness(report: SimulationReport) -> StalenessSummary:
    """Fold one report's counters into a :class:`StalenessSummary`."""
    dead = report.dead_probes + report.dead_pings
    stale = report.stale_dead_query_probes + report.stale_dead_pings
    return StalenessSummary(
        dead_probes=dead,
        stale_dead_probes=stale,
        fresh_dead_probes=dead - stale,
        stale_fraction=ratio(stale, dead),
        stale_per_query=ratio(stale, report.queries),
        notices=report.freshness_notices,
        purges=report.freshness_purges,
    )
