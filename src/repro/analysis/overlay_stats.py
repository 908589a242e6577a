"""Structural statistics of a conceptual overlay snapshot.

The paper argues (§3.3) that GUESS is exposed to *fragmentation attacks*
when well-connected peers vanish simultaneously.  :class:`OverlayStats`
quantifies that exposure for a snapshot:

* the in-degree distribution (who would be missed?);
* a targeted-removal experiment: drop the top in-degree peers and
  measure the surviving largest component — the attack the paper
  describes, run as analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.errors import TopologyError
from repro.metrics.summary import quantile
from repro.network.address import Address
from repro.network.overlay import OverlaySnapshot
from repro.network.unionfind import UnionFind


class OverlayStats:
    """Structural analysis over one :class:`OverlaySnapshot`."""

    def __init__(self, snapshot: OverlaySnapshot) -> None:
        self.snapshot = snapshot
        in_degrees: Dict[Address, int] = {a: 0 for a in snapshot.live}
        for targets in snapshot.edges.values():
            for target in targets:
                in_degrees[target] += 1
        self._in = in_degrees

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------

    def in_degree_quantiles(self, qs: Sequence[float] = (0.5, 0.9, 0.99)):
        """Selected quantiles of the in-degree (who-points-at-me) distribution."""
        values = [float(v) for v in self._in.values()]
        if not values:
            return {q: 0.0 for q in qs}
        return {q: quantile(values, q) for q in qs}

    def most_referenced(self, k: int = 10) -> List[tuple[Address, int]]:
        """The ``k`` peers appearing in the most link caches.

        These are exactly the peers whose simultaneous departure hurts
        most (the fragmentation-attack targets).
        """
        ranked = sorted(self._in.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    # ------------------------------------------------------------------
    # Fragmentation attack
    # ------------------------------------------------------------------

    def targeted_removal_lcc(self, remove_fraction: float) -> int:
        """LCC size after removing the top in-degree peers.

        Args:
            remove_fraction: fraction (0..1) of live peers removed, by
                descending in-degree — the §3.3 fragmentation attack.

        Returns:
            Size of the largest surviving weakly connected component.
        """
        count = self._removal_count(remove_fraction)
        return self._lcc_without({a for a, _ in self.most_referenced(count)})

    def random_removal_lcc(self, remove_fraction: float, rng) -> int:
        """LCC after removing uniformly random peers (attack control)."""
        count = self._removal_count(remove_fraction)
        live = sorted(self.snapshot.live)
        return self._lcc_without(set(rng.sample(live, count)) if count else set())

    def _removal_count(self, remove_fraction: float) -> int:
        if not 0.0 <= remove_fraction < 1.0:
            raise TopologyError(
                f"remove_fraction must be in [0, 1), got {remove_fraction}"
            )
        return int(len(self.snapshot.live) * remove_fraction)

    def _lcc_without(self, doomed: Set[Address]) -> int:
        """Size of the largest weakly connected component left by ``doomed``."""
        survivors = self.snapshot.live - doomed
        if not survivors:
            return 0
        uf = UnionFind(survivors)
        for owner, targets in self.snapshot.edges.items():
            if owner in doomed:
                continue
            for target in targets:
                if target not in doomed:
                    uf.union(owner, target)
        return uf.largest_component_size()
