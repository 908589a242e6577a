"""Shared population view for extent-based (forwarding) baselines.

Forwarding mechanisms are insensitive to link-cache state — a flood
reaches whichever peers sit within the TTL radius, which for the random
overlays Gnutella forms is statistically a random subset of the live
population.  The baselines therefore operate on a :class:`PopulationView`:
the live peers, their libraries, and the content model, synthesised
from the same content and file-count models GUESS draws from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, List, Tuple

from repro.errors import WorkloadError
from repro.workload.content import ContentModel
from repro.workload.files import FileCountModel


@dataclass(frozen=True)
class PopulationView:
    """An immutable snapshot of live peers and their libraries.

    Attributes:
        libraries: the owned file ranks of each live peer.
        content: the content model that generated them (supplies query
            targets).
    """

    libraries: Tuple[Collection[int], ...]
    content: ContentModel

    @property
    def size(self) -> int:
        """Number of live peers."""
        return len(self.libraries)

    @classmethod
    def synthesize(
        cls,
        n: int,
        rng: random.Random,
        content: ContentModel | None = None,
        files: FileCountModel | None = None,
    ) -> "PopulationView":
        """Generate a fresh population of ``n`` peers.

        Uses the same file-count and content models as the GUESS
        simulation, so baseline and protocol results are comparable.
        """
        if n < 1:
            raise WorkloadError(f"population size must be >= 1, got {n}")
        content = content or ContentModel()
        files = files or FileCountModel()
        libraries = tuple(
            content.build_library(rng, files.sample(rng)) for _ in range(n)
        )
        return cls(libraries=libraries, content=content)

    # ------------------------------------------------------------------
    # Query machinery shared by the baselines
    # ------------------------------------------------------------------

    def owners_of(self, target: int) -> int:
        """How many peers own ``target`` (0 for nonexistent items)."""
        return sum(
            1
            for library in self.libraries
            if ContentModel.matches(library, target)
        )

    def draw_query_targets(
        self, rng: random.Random, count: int
    ) -> List[int]:
        """Draw ``count`` query targets from the content model."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return [self.content.draw_query_target(rng) for _ in range(count)]

    def unsat_probability_curve(
        self, owner_count: int, max_extent: int
    ) -> List[float]:
        """P(no owner among E uniformly chosen peers), for E = 1..max_extent.

        The exact without-replacement (hypergeometric) recurrence::

            P_0 = 1
            P_E = P_{E-1} * (N - m - (E-1)) / (N - (E-1))

        where ``N`` is the population and ``m`` the number of owners.
        This is the analytic core of the fixed-extent baseline: a flood
        reaching E peers fails iff none of them owns the target.
        """
        n = self.size
        if not 0 <= owner_count <= n:
            raise WorkloadError(
                f"owner_count must be in [0, {n}], got {owner_count}"
            )
        if max_extent < 1 or max_extent > n:
            raise WorkloadError(
                f"max_extent must be in [1, {n}], got {max_extent}"
            )
        curve: List[float] = []
        p = 1.0
        for drawn in range(max_extent):
            remaining = n - drawn
            non_owners_left = n - owner_count - drawn
            p *= max(0.0, non_owners_left) / remaining
            curve.append(p)
        return curve

    def sample_first_owner_position(
        self, owner_count: int, rng: random.Random
    ) -> int | None:
        """Position (1-based) of the first owner in a random probe order.

        Simulates drawing peers uniformly without replacement until an
        owner appears; returns None when there is no owner at all.  Used
        by the iterative-deepening baseline, whose successive floods
        reach nested supersets of peers.
        """
        if owner_count <= 0:
            return None
        n = self.size
        remaining_owners = owner_count
        for position in range(1, n + 1):
            remaining_peers = n - position + 1
            if rng.random() < remaining_owners / remaining_peers:
                return position
        # Float round-off could in principle leak past the loop; the last
        # remaining peer must be an owner if we got here with owners left.
        return n
