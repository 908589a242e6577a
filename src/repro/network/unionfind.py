"""Disjoint-set forest (union-find) with path compression and union by size.

The connectivity experiments (paper Figures 6 and 7) repeatedly compute the
largest connected component of the conceptual overlay.  A hand-rolled
union-find is an order of magnitude faster than building a ``networkx``
graph per snapshot, which matters when sweeping PingInterval × CacheSize ×
NetworkSize.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable


class UnionFind:
    """Union-find over arbitrary hashable items.

    Items are added lazily on first touch.  ``find`` uses iterative path
    compression (halving); ``union`` is by size, so component sizes are
    maintained exactly and :meth:`largest_component_size` is O(1) after the
    unions.
    """

    __slots__ = ("_parent", "_size", "_max_size")

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._max_size = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Register ``item`` as its own singleton component (idempotent)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            if self._max_size < 1:
                self._max_size = 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        """Number of items registered."""
        return len(self._parent)

    def find(self, item: Hashable) -> Hashable:
        """Return the canonical representative of ``item``'s component.

        Raises:
            KeyError: if ``item`` was never added.
        """
        parent = self._parent
        root = item
        while parent[root] != root:
            parent[root] = parent[parent[root]]  # path halving
            root = parent[root]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the components of ``a`` and ``b`` (adding them if new).

        Returns:
            True if a merge happened; False if they were already together.
        """
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        # Union by size: hang the smaller tree under the larger.
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        del self._size[root_b]
        if self._size[root_a] > self._max_size:
            self._max_size = self._size[root_a]
        return True

    def largest_component_size(self) -> int:
        """Size of the largest component (0 if empty)."""
        return self._max_size
