"""Iterative deepening — the coarse-grained flexible extent baseline.

Yang & Garcia-Molina's iterative deepening [22] floods at a small TTL
first, and re-floods at successively larger TTLs until the query is
satisfied.  Its control over extent is therefore *coarse*: "many peers
(e.g., hundreds) are probed in each iteration, instead of just one"
(paper Section 6.2).  Two cost characteristics distinguish it from
GUESS:

* each deeper flood **re-visits** all previously reached peers (the new
  flood is a superset of the old one), so costs accumulate across
  iterations;
* within one iteration the whole extent is charged even if the first
  probed peer would have answered.

The implementation mirrors the statistical extent machinery of the
fixed-extent baseline: successive floods reach nested random supersets,
so a query's fate is fully determined by the position of the first owner
in a random peer ordering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.baselines.extent import PopulationView
from repro.errors import WorkloadError
from repro.metrics.summary import mean

#: Default extent schedule: hundreds of peers per iteration, per the
#: paper's description of the technique.
DEFAULT_EXTENT_SCHEDULE = (100, 250, 500, 1000)


@dataclass(frozen=True)
class IterativeDeepeningSearch:
    """The iterative-deepening mechanism for a given extent schedule.

    Args:
        view: population snapshot.
        schedule: strictly increasing flood extents; the last entry is
            the give-up point.  Entries are clamped to the population
            size at evaluation time (a flood cannot reach more peers than
            exist).
    """

    view: PopulationView
    schedule: Tuple[int, ...] = DEFAULT_EXTENT_SCHEDULE

    def __post_init__(self) -> None:
        if not self.schedule:
            raise WorkloadError("schedule must be non-empty")
        if any(e < 1 for e in self.schedule):
            raise WorkloadError(f"extents must be >= 1, got {self.schedule}")
        if list(self.schedule) != sorted(set(self.schedule)):
            raise WorkloadError(
                f"schedule must be strictly increasing, got {self.schedule}"
            )

    def _clamped_schedule(self) -> List[int]:
        n = self.view.size
        clamped = sorted({min(extent, n) for extent in self.schedule})
        return clamped

    def run(self, target: int, rng: random.Random) -> Tuple[int, bool]:
        """One sampled query: returns ``(total cost, satisfied)``.

        Successive floods reach nested supersets, so the query succeeds
        at the first scheduled extent that covers the first owner's
        position in a random peer ordering.  Cost sums every flood
        attempted (re-flooding re-visits earlier peers).
        """
        owners = self.view.owners_of(target)
        position = self.view.sample_first_owner_position(owners, rng)
        cost = 0
        for extent in self._clamped_schedule():
            cost += extent
            if position is not None and position <= extent:
                return cost, True
        return cost, False

    def evaluate(
        self, targets: Sequence[int], rng: random.Random
    ) -> Tuple[float, float]:
        """Mean ``(cost, unsat rate)`` over ``targets`` (Figure 8's point)."""
        if not targets:
            raise WorkloadError("need at least one query target")
        costs: List[float] = []
        unsatisfied = 0
        for target in targets:
            cost, satisfied = self.run(target, rng)
            costs.append(float(cost))
            if not satisfied:
                unsatisfied += 1
        return mean(costs), unsatisfied / len(targets)
