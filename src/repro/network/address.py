"""Peer address space.

A GUESS cache entry holds the IP address of another peer (paper Section
2.1).  The simulator models addresses as monotonically increasing integers
handed out by :class:`AddressAllocator`.  Two properties matter:

* **No reuse.**  When a peer dies its address is never reassigned.  A stale
  cache entry therefore points at a permanently dead endpoint — the paper's
  worst case for cache maintenance ("when a peer dies, we assume that it
  never returns", Section 5.1).
* **Cheap identity.**  Addresses are ints, so cache-membership checks and
  dedup sets are dictionary-speed.
"""

from __future__ import annotations

# An address is just an integer.  The alias documents intent in signatures.
Address = int


class AddressAllocator:
    """Hands out fresh, never-reused peer addresses.

    Example::

        alloc = AddressAllocator()
        a = alloc.allocate()   # 0
        b = alloc.allocate()   # 1
    """

    __slots__ = ("_next",)

    def __init__(self, start: Address = 0) -> None:
        if start < 0:
            raise ValueError(f"start address must be >= 0, got {start}")
        self._next = int(start)

    def allocate(self) -> Address:
        """Return a fresh address, never returned before by this allocator."""
        address = self._next
        self._next += 1
        return address

    def allocate_many(self, count: int) -> list[Address]:
        """Allocate ``count`` consecutive fresh addresses."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        first = self._next
        self._next += count
        return list(range(first, first + count))

    def __contains__(self, address: Address) -> bool:
        """True if ``address`` has been allocated by this allocator."""
        return 0 <= address < self._next
