"""Gnutella-style fixed-extent flooding (paper Sections 3.1 and 6.2).

Gnutella's location and extent are fixed by topology: a query reaches
"whichever peers happen to be within a certain radius of the originator",
costs that full radius regardless of the item's popularity, and cannot
stop early.  Two granularities are provided:

* :class:`GnutellaOverlay` — an explicit random overlay with TTL-bounded
  flooding (the flood baseline of the gossip-search comparison);
* :func:`fixed_extent_tradeoff` — the statistical equivalent the paper
  sweeps in Figure 8: a query reaching extent ``E`` costs ``E`` probes
  and fails iff none of ``E`` uniformly chosen peers owns the target.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.baselines.extent import PopulationView
from repro.errors import TopologyError, WorkloadError
from repro.workload.content import ContentModel


class GnutellaOverlay:
    """A connected random overlay with TTL-bounded flooding.

    Args:
        n: number of peers (indices 0..n-1 aligned with a
            :class:`PopulationView`'s libraries).
        degree: connections per peer (Gnutella clients default to a small
            handful; 4 is typical).
        rng: topology randomness.

    The graph is built as a random Hamiltonian cycle (guaranteeing
    connectivity) plus random chords up to the target degree — the
    standard way to get a connected near-regular random graph.
    """

    def __init__(self, n: int, degree: int, rng: random.Random) -> None:
        if n < 2:
            raise TopologyError(f"overlay needs >= 2 peers, got {n}")
        if degree < 2:
            raise TopologyError(f"degree must be >= 2, got {degree}")
        if degree >= n:
            raise TopologyError(
                f"degree {degree} must be < number of peers {n}"
            )
        self.n = n
        self.degree = degree
        self._neighbors: List[Set[int]] = [set() for _ in range(n)]
        # Hamiltonian cycle for guaranteed connectivity.
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            a, b = order[i], order[(i + 1) % n]
            self._neighbors[a].add(b)
            self._neighbors[b].add(a)
        # Random chords until everyone is at (or near) the target degree.
        attempts = 0
        max_attempts = n * degree * 20
        deficient = [v for v in range(n) if len(self._neighbors[v]) < degree]
        while deficient and attempts < max_attempts:
            attempts += 1
            a = deficient[rng.randrange(len(deficient))]
            b = rng.randrange(n)
            if a == b or b in self._neighbors[a]:
                continue
            if len(self._neighbors[b]) >= degree + 2:
                continue
            self._neighbors[a].add(b)
            self._neighbors[b].add(a)
            deficient = [
                v for v in range(n) if len(self._neighbors[v]) < degree
            ]

    def neighbors(self, peer: int) -> Set[int]:
        """The neighbor set of ``peer``."""
        return set(self._neighbors[peer])

    def flood_reach(self, source: int, ttl: int) -> List[int]:
        """Peers reached by a TTL-bounded flood from ``source``.

        Returns peers in BFS order, excluding the source itself (a peer
        does not message itself), matching Gnutella's hop-count
        semantics: TTL 1 reaches the direct neighbors.
        """
        if not 0 <= source < self.n:
            raise TopologyError(f"source {source} out of range")
        if ttl < 0:
            raise TopologyError(f"ttl must be >= 0, got {ttl}")
        seen = {source}
        reached: List[int] = []
        frontier = deque([(source, 0)])
        while frontier:
            node, depth = frontier.popleft()
            if depth == ttl:
                continue
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    reached.append(neighbor)
                    frontier.append((neighbor, depth + 1))
        return reached

    def flood_receipts(self, source: int, ttl: int) -> Dict[int, int]:
        """Per-peer receipt counts of a TTL-bounded flood.

        Returns:
            Mapping of peer to the number of copies of the query it
            received (duplicates included) — the per-peer load column of
            the gossip-search comparison, where flooding's max load is
            its duplicate hot-spots.  Every peer that receives the query
            with remaining TTL forwards it to all neighbours except the
            link it arrived on.  The source itself never appears (a peer
            does not message itself).
        """
        if not 0 <= source < self.n:
            raise TopologyError(f"source {source} out of range")
        if ttl < 0:
            raise TopologyError(f"ttl must be >= 0, got {ttl}")
        seen = {source}
        receipts: Dict[int, int] = {}
        frontier = deque([(source, None, 0)])
        while frontier:
            node, received_from, depth = frontier.popleft()
            if depth == ttl:
                continue
            for neighbor in self._neighbors[node]:
                if neighbor == received_from:
                    continue
                receipts[neighbor] = receipts.get(neighbor, 0) + 1
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                frontier.append((neighbor, node, depth + 1))
        return receipts

    def flood_query(
        self, view: PopulationView, source: int, target: int, ttl: int
    ) -> Tuple[int, int]:
        """Flood a query; returns ``(messages_sent, results_found)``.

        Cost counts one message per reached peer — the paper's probe
        unit — ignoring duplicate-forwarding overhead, which only makes
        Gnutella look worse.
        """
        if view.size != self.n:
            raise TopologyError(
                f"view size {view.size} does not match overlay size {self.n}"
            )
        reached = self.flood_reach(source, ttl)
        results = sum(
            1
            for peer in reached
            if ContentModel.matches(view.libraries[peer], target)
        )
        return len(reached), results


def fixed_extent_tradeoff(
    view: PopulationView,
    targets: Sequence[int],
    extents: Sequence[int],
) -> List[Tuple[int, float]]:
    """The Figure 8 fixed-extent curve: ``(extent, mean unsat rate)``.

    Uses the exact hypergeometric failure probability per query, averaged
    over ``targets`` — no sampling noise, so the curve is smooth even
    with modest query counts.
    """
    if not targets:
        raise WorkloadError("need at least one query target")
    max_extent = max(extents)
    if min(extents) < 1 or max_extent > view.size:
        raise WorkloadError(
            f"extents must be in [1, {view.size}], got {sorted(extents)}"
        )
    # One owner-count pass per query, then share the curve across extents.
    per_extent_sums: Dict[int, float] = {extent: 0.0 for extent in extents}
    for target in targets:
        owners = view.owners_of(target)
        if owners == 0:
            for extent in extents:
                per_extent_sums[extent] += 1.0
            continue
        curve = view.unsat_probability_curve(owners, max_extent)
        for extent in extents:
            per_extent_sums[extent] += curve[extent - 1]
    return [
        (extent, per_extent_sums[extent] / len(targets))
        for extent in sorted(per_extent_sums)
    ]
