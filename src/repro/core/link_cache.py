"""The link cache (paper Sections 2.1-2.2).

A bounded map ``address -> CacheEntry`` with policy-driven eviction.  The
paper's rules, all enforced here:

* an address appears at most once; re-receiving an entry for a cached
  address does **not** update its fields ("it does not update any of the
  fields", Section 2.2);
* a peer never caches its own address;
* when the cache is full, the configured CacheReplacement policy picks a
  victim among the existing entries *and the incoming one* — so an
  incoming entry that ranks worst is simply rejected (how LFS keeps
  big-library peers resident);
* entries found dead (probe timeout) are evicted immediately, which is
  why caches often run below capacity (paper Table 3 discussion).

Storage layout
--------------

One insertion-ordered ``dict[Address, CacheEntry]``.  Dicts keep
insertion order across deletions and a re-inserted address goes to the
end, so iteration order is "oldest surviving insert first" — the order
every policy input (and hence the golden trace digests) is defined on.
Membership, eviction and the k-th-resident walk of a Random eviction
contest all run in C on that one structure.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List

from repro.core.entry import CacheEntry
from repro.core.policies import Policy
from repro.errors import ConfigError
from repro.network.address import Address


class LinkCache:
    """Bounded, policy-evicted cache of peer pointers.

    Args:
        capacity: maximum number of entries.  The global Table 2
            ``CacheSize`` by default; heterogeneous per-peer capacities
            (a :class:`~repro.freshness.plan.CacheSizing` policy) may
            assign any size >= 0 — a zero-slot cache refuses every
            insert without consulting the replacement policy.
        owner: address of the peer owning this cache; entries for the
            owner are silently refused.
    """

    __slots__ = ("capacity", "owner", "_entries")

    def __init__(self, capacity: int, owner: Address) -> None:
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.owner = owner
        #: address -> entry, in insertion order.
        self._entries: Dict[Address, CacheEntry] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Address) -> bool:
        return address in self._entries

    def entries(self) -> List[CacheEntry]:
        """Snapshot list of entries (insertion-ordered)."""
        return list(self._entries.values())

    def iter_entries(self) -> Iterable[CacheEntry]:
        """Live view of the entries (insertion-ordered), no copy.

        For read-only hot paths (health sampling); callers must not
        mutate the cache while iterating — use :meth:`entries` for that.
        """
        return self._entries.values()

    def addresses(self) -> Iterator[Address]:
        """Iterate over cached addresses (insertion-ordered)."""
        return iter(self._entries)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self,
        entry: CacheEntry,
        replacement: Policy,
        now: float,
        rng: random.Random,
    ) -> bool:
        """Try to insert ``entry`` under the replacement policy.

        Returns:
            True if the entry is now cached; False if it was refused
            (already present, points at the owner, or lost the eviction
            contest).  The caller must pass an entry it owns — the cache
            stores it by reference.
        """
        address = entry.address
        if address == self.owner:
            return False
        entries = self._entries
        if address in entries:
            # Paper: fields of an existing entry are not updated from pongs.
            return False
        if self.capacity == 0:
            # Zero-slot caches refuse unconditionally: an eviction
            # contest with no residents would burn a Random-policy draw
            # deciding nothing.
            return False
        if len(entries) >= self.capacity:
            # Full: the incoming entry competes with residents for a slot.
            # choose_victim_from picks the same victim choose_victim would
            # over list(residents) + [entry], minus the combined-list copy.
            victim = replacement.choose_victim_from(
                entries.values(), len(entries), entry, now, rng
            )
            if victim is None or victim.address == address:
                return False
            del entries[victim.address]
        entries[address] = entry
        return True

    def evict(self, address: Address) -> bool:
        """Remove ``address`` (dead peer, refused probe); True if present."""
        return self._entries.pop(address, None) is not None

    def touch(self, address: Address, now: float) -> None:
        """Update TS after a direct interaction with ``address`` (no-op if absent)."""
        entry = self._entries.get(address)
        if entry is not None:
            entry.touch(now)

    def record_results(self, address: Address, num_results: int, now: float) -> None:
        """Reset NumRes for ``address`` after a query reply (no-op if absent)."""
        entry = self._entries.get(address)
        if entry is not None:
            entry.record_results(num_results, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkCache(owner={self.owner}, size={len(self._entries)}/"
            f"{self.capacity})"
        )
