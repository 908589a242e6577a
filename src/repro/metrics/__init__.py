"""Measurement layer.

* :mod:`repro.metrics.collectors` — accumulates per-query outcomes,
  per-peer lifetime loads, ping accounting, and periodic cache-health
  samples during a run.
* :mod:`repro.metrics.load` — ranked load distributions (Figure 13).
* :mod:`repro.metrics.summary` — small statistics helpers shared by the
  experiment modules.
"""

from repro.metrics.collectors import (
    CacheHealthSample,
    MetricsCollector,
    SimulationReport,
)
from repro.metrics.load import LoadDistribution
from repro.metrics.summary import mean, quantile

__all__ = [
    "CacheHealthSample",
    "MetricsCollector",
    "SimulationReport",
    "LoadDistribution",
    "mean",
    "quantile",
]
