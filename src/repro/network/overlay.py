"""Conceptual-overlay extraction and connectivity analysis.

Link-cache pointers form a directed "conceptual overlay" (paper Figure 2).
A snapshot keeps, for each *live* peer, the subset of its link-cache
entries that point at other live peers.  The paper's connectivity metric —
the size of the largest connected component as PingInterval varies
(Figures 6 and 7) — treats the overlay as undirected, matching the authors'
reading that any pointer lets information flow once contact is made (the
introduction mechanism makes contact bidirectional with probability
``IntroProb``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import TopologyError
from repro.network.address import Address
from repro.network.unionfind import UnionFind


@dataclass(frozen=True)
class OverlaySnapshot:
    """An immutable snapshot of the conceptual overlay.

    Attributes:
        live: set of live peer addresses at snapshot time.
        edges: for each live address, the live addresses its link cache
            points to.  Pointers to dead peers are dropped at construction
            (a dead pointer cannot carry a probe).
    """

    live: frozenset[Address]
    edges: Mapping[Address, Tuple[Address, ...]] = field(default_factory=dict)

    @classmethod
    def from_caches(
        cls,
        live: Iterable[Address],
        cache_contents: Mapping[Address, Iterable[Address]],
    ) -> "OverlaySnapshot":
        """Build a snapshot from raw link-cache contents.

        Args:
            live: addresses of peers currently alive.
            cache_contents: address -> iterable of addresses in its link
                cache (dead targets are filtered out here).

        Raises:
            TopologyError: if ``cache_contents`` names a peer not in
                ``live`` (a dead peer has no cache to snapshot).
        """
        live_set = frozenset(live)
        filtered: Dict[Address, Tuple[Address, ...]] = {}
        for owner, targets in cache_contents.items():
            if owner not in live_set:
                raise TopologyError(
                    f"cache owner {owner} is not in the live set"
                )
            filtered[owner] = tuple(t for t in targets if t in live_set)
        return cls(live=live_set, edges=filtered)

    # ------------------------------------------------------------------
    # Undirected connectivity (the paper's metric)
    # ------------------------------------------------------------------

    def largest_component_size(self) -> int:
        """Size of the largest weakly connected component.

        Isolated live peers (no in- or out-pointers) count as singleton
        components, so a fully fragmented overlay reports 1, and a healthy
        one reports ``len(self.live)``.
        """
        if not self.live:
            return 0
        uf = UnionFind(self.live)
        for owner, targets in self.edges.items():
            for target in targets:
                uf.union(owner, target)
        return uf.largest_component_size()
