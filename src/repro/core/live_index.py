"""Order-preserving index of live peer addresses with O(log n) sampling.

:meth:`GuessSimulation._pick_friend` needs "the k-th live peer in dict
insertion order" once per churn event.  The obvious spelling —
``list(self._peers.keys())[k]`` — rebuilds an N-element list per death,
which at NetworkSize 5000 under heavy churn copies hundreds of millions
of references over a run.

:class:`LiveAddressIndex` mirrors the ``_peers`` dict incrementally: an
append-only order list (dead slots tombstoned to ``None``) plus a Fenwick
tree over the alive flags, so the k-th live address resolves with a
single O(log n) tree descent and no allocation.  The live subsequence of
the order list is, by construction, exactly the insertion order of the
surviving dict keys — Python dicts preserve insertion order across
deletions — so ``kth(k)`` returns precisely the address the list-rebuild
spelling would have picked for the same ``k``.  That equivalence is what
keeps the trace digest of an optimized run bit-identical to the old code
(asserted by the golden digests in ``tests/integration``).

Tombstones are compacted (preserving relative order) whenever they
outnumber the live entries, bounding memory at ~2x the live population
regardless of how long churn runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.network.address import Address

#: Below this order-list length compaction is pointless churn.
_COMPACT_MIN_SIZE = 64


class LiveAddressIndex:
    """Sampled set of addresses preserving dict-insertion-order semantics.

    Supports ``add`` (append), ``discard`` (tombstone), ``kth`` (k-th live
    address by insertion order) and ``len`` — each O(log n) or better,
    amortised over compactions.
    """

    __slots__ = ("_order", "_pos", "_tree", "_alive")

    def __init__(self) -> None:
        self._order: List[Optional[Address]] = []
        self._pos: Dict[Address, int] = {}
        #: Fenwick tree over alive flags; ``_tree[0]`` is a dummy so the
        #: classic 1-indexed update/prefix arithmetic applies unchanged.
        self._tree: List[int] = [0]
        self._alive = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._alive

    def __contains__(self, address: Address) -> bool:
        return address in self._pos

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, address: Address) -> None:
        """Append a newly live address (must not already be present)."""
        if address in self._pos:
            raise ValueError(f"address {address!r} already live")
        self._pos[address] = len(self._order)
        self._order.append(address)
        # Fenwick append: node i covers (i - lowbit(i), i]; its sum is the
        # new element (alive=1) plus the already-known prefix difference.
        i = len(self._order)
        low = i - (i & -i)
        self._tree.append(1 + self._prefix(i - 1) - self._prefix(low))
        self._alive += 1

    def discard(self, address: Address) -> bool:
        """Tombstone ``address``; True if it was live."""
        idx = self._pos.pop(address, None)
        if idx is None:
            return False
        self._order[idx] = None
        i = idx + 1
        tree = self._tree
        size = len(self._order)
        while i <= size:
            tree[i] -= 1
            i += i & -i
        self._alive -= 1
        if (
            len(self._order) > _COMPACT_MIN_SIZE
            and self._alive * 2 < len(self._order)
        ):
            self._compact()
        return True

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def kth(self, k: int) -> Address:
        """The ``k``-th live address (0-based) in insertion order.

        Equivalent to ``[a for a in order if alive(a)][k]`` — and hence to
        ``list(peers_dict.keys())[k]`` when the index mirrors the dict —
        but via an O(log n) Fenwick descent.

        Raises:
            IndexError: if ``k`` is out of range.
        """
        if not 0 <= k < self._alive:
            raise IndexError(f"kth({k}) out of range for {self._alive} live")
        tree = self._tree
        size = len(self._order)
        target = k + 1
        pos = 0
        bit = 1 << (size.bit_length() - 1) if size else 0
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] < target:
                pos = nxt
                target -= tree[nxt]
            bit >>= 1
        address = self._order[pos]
        assert address is not None  # pos is the (k+1)-th alive slot
        return address

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prefix(self, i: int) -> int:
        """Number of live slots among the first ``i`` (1-indexed) slots."""
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    def _compact(self) -> None:
        """Drop tombstones, preserving live relative order."""
        live = [a for a in self._order if a is not None]
        self._order = live
        self._pos = {a: i for i, a in enumerate(live)}
        size = len(live)
        tree = [0] * (size + 1)
        # O(n) Fenwick build over all-ones.
        for i in range(1, size + 1):
            tree[i] += 1
            j = i + (i & -i)
            if j <= size:
                tree[j] += tree[i]
        self._tree = tree
        self._alive = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveAddressIndex(alive={self._alive}, "
            f"slots={len(self._order)})"
        )
