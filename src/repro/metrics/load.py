"""Ranked per-peer load distributions (paper Figure 13).

Figure 13 ranks every peer that existed during a run by the number of
probes it received over its lifetime and plots load against (log) rank —
making both hotspot formation (steep head) and fairness (flat curve)
visible at a glance.  :class:`LoadDistribution` reproduces that view and
adds the summary statistics the paper discusses in prose (total probes,
top-k share, Gini coefficient).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.network.address import Address


class LoadDistribution:
    """Immutable ranked view of per-peer received-probe counts.

    Args:
        loads: mapping of peer address -> probes received over lifetime
            (dead and live peers alike, as in the paper).
    """

    def __init__(self, loads: Dict[Address, int]) -> None:
        self._loads = dict(loads)
        self._ranked: List[int] = sorted(self._loads.values(), reverse=True)

    def __len__(self) -> int:
        return len(self._ranked)

    @property
    def total(self) -> int:
        """Total probes received across all peers."""
        return sum(self._ranked)

    def load_at_rank(self, rank: int) -> int:
        """Load of the ``rank``-th most-loaded peer (1-based).

        Raises:
            IndexError: if ``rank`` is out of range.
        """
        if not 1 <= rank <= len(self._ranked):
            raise IndexError(
                f"rank must be in [1, {len(self._ranked)}], got {rank}"
            )
        return self._ranked[rank - 1]

    def top_share(self, fraction: float) -> float:
        """Share of all probes received by the top ``fraction`` of peers.

        ``top_share(0.01)`` close to 1.0 means extreme hotspotting;
        close to ``fraction`` means a perfectly level distribution.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self._ranked:
            return 0.0
        total = self.total
        if total == 0:
            return 0.0
        k = max(1, int(len(self._ranked) * fraction))
        return sum(self._ranked[:k]) / total

    def gini(self) -> float:
        """Gini coefficient of the load distribution (0 = perfectly fair).

        Uses the standard sorted-rank formula; returns 0.0 for degenerate
        inputs (no peers or zero total load).
        """
        n = len(self._ranked)
        total = self.total
        if n == 0 or total == 0:
            return 0.0
        ascending = sorted(self._ranked)
        weighted = sum((i + 1) * v for i, v in enumerate(ascending))
        return (2.0 * weighted) / (n * total) - (n + 1.0) / n

    def series(self, max_points: int | None = None) -> List[Tuple[int, int]]:
        """(rank, load) pairs for plotting, optionally log-thinned.

        With ``max_points`` the ranks are thinned geometrically, matching
        the paper's log-scale x-axis.
        """
        n = len(self._ranked)
        if n == 0:
            return []
        if max_points is None or n <= max_points:
            return [(rank, load) for rank, load in enumerate(self._ranked, 1)]
        picked: List[Tuple[int, int]] = []
        rank = 1
        growth = (n / 1.0) ** (1.0 / (max_points - 1))
        seen = set()
        for _ in range(max_points):
            index = min(n, max(1, int(round(rank))))
            if index not in seen:
                seen.add(index)
                picked.append((index, self._ranked[index - 1]))
            rank *= growth
        if picked[-1][0] != n:
            picked.append((n, self._ranked[-1]))
        return picked


def merge_loads(parts: Sequence[Dict[Address, int]]) -> Dict[Address, int]:
    """Merge per-peer load mappings (e.g. live peers + harvested dead)."""
    merged: Dict[Address, int] = {}
    for part in parts:
        for address, load in part.items():
            merged[address] = merged.get(address, 0) + load
    return merged
