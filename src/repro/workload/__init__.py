"""Workload substrate: churn, content, and query models.

The paper parameterises its simulation with measured Gnutella data
(Saroiu et al. [18]) and the hybrid-P2P query model of Yang &
Garcia-Molina [21].  Neither dataset is available, so this subpackage
builds synthetic equivalents calibrated to the published summary
statistics; the substitutions are documented in DESIGN.md §2.

* :mod:`repro.workload.distributions` — reusable samplers (Zipf,
  log-normal, Pareto, empirical).
* :mod:`repro.workload.lifetimes` — peer session durations with the
  ``LifespanMultiplier`` stress knob; a measured trace swaps in as
  ``LifetimeModel(sample=values)``.
* :mod:`repro.workload.files` — shared-file counts (free riders + heavy
  tail).
* :mod:`repro.workload.content` — the file catalog, ownership assignment
  and query matching (which peers can answer which query).
* :mod:`repro.workload.queries` — bursty Poisson query arrivals
  (1-5 queries per burst, paper Section 5.1).
"""

from repro.workload.content import ContentModel, Library
from repro.workload.distributions import (
    BoundedParetoSampler,
    EmpiricalSampler,
    LogNormalSampler,
    ZipfSampler,
)
from repro.workload.files import FileCountModel
from repro.workload.lifetimes import LifetimeModel
from repro.workload.queries import QueryBurstProcess

__all__ = [
    "ContentModel",
    "Library",
    "BoundedParetoSampler",
    "EmpiricalSampler",
    "LogNormalSampler",
    "ZipfSampler",
    "FileCountModel",
    "LifetimeModel",
    "QueryBurstProcess",
]
