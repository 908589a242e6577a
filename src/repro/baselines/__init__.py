"""Forwarding-based baselines the paper compares GUESS against.

* :mod:`repro.baselines.extent` — the shared population view and the
  analytic machinery for "a query reaches E peers" semantics.
* :mod:`repro.baselines.gnutella` — fixed-extent flooding (Gnutella):
  cost is always the full extent, adaptivity is zero.
* :mod:`repro.baselines.iterative_deepening` — coarse-grained flexible
  extent: successive re-floods at growing extents (Yang & Garcia-Molina
  [22]).
* :mod:`repro.baselines.gossip` — rumor-spreading (push/pull/push-pull)
  search, plus the :class:`~repro.baselines.gossip.GossipPlan` arming
  gossip-assisted GUESS in :mod:`repro.core.network_sim`.

These drive Figure 8's cost/unsatisfaction tradeoff curves and the
gossip-search comparison suite.
"""

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import GnutellaOverlay, fixed_extent_tradeoff
from repro.baselines.gossip import (
    GossipParams,
    GossipPlan,
    GossipRelay,
    GossipSearch,
    GossipSummary,
)
from repro.baselines.iterative_deepening import IterativeDeepeningSearch

__all__ = [
    "PopulationView",
    "GnutellaOverlay",
    "fixed_extent_tradeoff",
    "GossipParams",
    "GossipPlan",
    "GossipRelay",
    "GossipSearch",
    "GossipSummary",
    "IterativeDeepeningSearch",
]
