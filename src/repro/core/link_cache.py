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
  big-library peers resident), and Random draws it uniformly;
* entries found dead (probe timeout) are evicted immediately, which is
  why caches often run below capacity (paper Table 3 discussion).

Storage layout
--------------

One insertion-ordered ``dict[Address, CacheEntry]``.  Dicts keep
insertion order across deletions and a re-inserted address goes to the
end, so iteration order is "oldest surviving insert first" — the order
every policy input (and hence the golden trace digests) is defined on.
Membership and eviction run in C on that one structure.  Random's
index draws read that order by position, so a cache they read keeps it
as a list too: the k-th resident is one index, where a walk over the
dict reads every entry before it (a CPU-cache miss each).  Admission
appends, a Random contest deletes by index, any other removal drops the
list until the next draw rebuilds it.

Beside it, one :class:`Ranking` per key-based order a policy has read
(a field and a direction), built by one sort on first use and kept by
the four mutation paths with ``bisect`` — so a keyed pong is a slice and
a keyed contest one comparison.  A cache only Random policies read holds
none.  Every change to a resident's fields goes through this class,
and a pong enters in one call, :meth:`LinkCache.admit`.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from math import ceil, log
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.entry import CacheEntry
from repro.core.policies import Policy
from repro.errors import ConfigError
from repro.network.address import Address
from repro.sim.rng import randbelow

_ADDRESS = attrgetter("address")
_RANK = itemgetter(0)


class Ranking:
    """The residents in one key-based policy's order, kept as they change.

    ``entries`` runs preferred end first, ties lowest address first, so
    the victim end is the lowest value at the highest address (the
    paper's tie rules).  ``ranks`` holds each one's :meth:`Policy.rank`:
    both lists ascend on ``(rank, address)``, so a position is found by
    ``bisect``.
    """

    __slots__ = ("field", "rank", "ranks", "entries")

    def __init__(self, policy: Policy, residents: Iterable[CacheEntry]) -> None:
        self.field = policy.field
        self.rank = policy.rank
        # One rank call per resident, in address order; the stable sort on
        # the ranks alone then keeps ties lowest address first.
        by_address = sorted(residents, key=_ADDRESS)
        placed = sorted(zip(map(self.rank, by_address), by_address), key=_RANK)
        self.ranks = [rank for rank, _ in placed]
        self.entries = [entry for _, entry in placed]

    def _index(self, rank, address: Address) -> int:
        lo = bisect_left(self.ranks, rank)
        hi = bisect_right(self.ranks, rank, lo)
        return bisect_left(self.entries, address, lo, hi, key=_ADDRESS)

    def add(self, entry: CacheEntry) -> None:
        rank = self.rank(entry)
        index = self._index(rank, entry.address)
        self.ranks.insert(index, rank)
        self.entries.insert(index, entry)

    def remove(self, entry: CacheEntry, rank) -> None:
        """Drop ``entry``, placed at ``rank``."""
        index = self._index(rank, entry.address)
        del self.ranks[index], self.entries[index]

    def move(self, entry: CacheEntry, rank) -> None:
        """Re-place ``entry``, placed at ``rank``, if its rank has changed."""
        if self.rank(entry) != rank:
            self.remove(entry, rank)
            self.add(entry)


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

    __slots__ = ("capacity", "owner", "_entries", "_rankings", "_order")

    def __init__(self, capacity: int, owner: Address) -> None:
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.owner = owner
        #: address -> entry, in insertion order.
        self._entries: Dict[Address, CacheEntry] = {}
        #: ``(field, prefers_low)`` -> its ranking; None until one is read.
        self._rankings: Optional[Dict[Tuple[str, bool], Ranking]] = None
        #: The residents in insertion order; None until a Random draw reads it.
        self._order: Optional[List[CacheEntry]] = None

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

    def ranking(self, policy: Policy) -> Ranking:
        """The residents in key-based ``policy``'s order, built on first use."""
        if self._rankings is None:
            self._rankings = {}
        on = (policy.field, policy.prefers_low)
        ranking = self._rankings.get(on)
        if ranking is None:
            ranking = self._rankings[on] = Ranking(policy, self._entries.values())
        return ranking

    def select_top(
        self, policy: Policy, k: int, rng: random.Random
    ) -> List[CacheEntry]:
        """The ``k`` entries ``policy`` prefers most (pong construction).

        Random's: ``random.sample``'s, draw for draw, without its argument
        checks and ``_randbelow`` frames; at ``k`` >= n a ``shuffle``.
        """
        if not policy.randomized:
            return self.ranking(policy).entries[:k]
        n = len(self._entries)
        if k <= 0 or not n:
            return []
        order = self._order or self._reorder()
        if k >= n:
            shuffled = order[:]
            rng.shuffle(shuffled)
            return shuffled
        getrandbits = rng.getrandbits
        if n <= (21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))):
            # sample's branch for a population this small (caches of ten):
            # each index below the m still in the pool, the pick swapped to
            # slot m - 1 — so the pool left is sample's, and the picks
            # stack up from the end in the order drawn.
            pool = order[:]
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                pool[j], pool[m - 1] = pool[m - 1], pool[j]
            return pool[n - 1 : n - k - 1 : -1]
        # Above it, k distinct indices by rejection: the ``_randbelow`` loop
        # and ``while j in selected`` are one loop; k is PongSize (5).
        bits = n.bit_length()
        picked = [n] * k  # n: a slot not drawn yet, never an index
        for t in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked[t] = j
        return [*map(order.__getitem__, picked)]

    def select_best(
        self, policy: Policy, rng: random.Random
    ) -> Optional[CacheEntry]:
        """The entry ``policy`` prefers most (the ping target), or None."""
        if policy.randomized:
            if not self._entries:
                return None
            order = self._order or self._reorder()
            return order[randbelow(rng, len(order))]
        ranked = self.ranking(policy).entries
        return ranked[0] if ranked else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self, entry: CacheEntry, replacement: Policy, rng: random.Random
    ) -> bool:
        """:meth:`admit` of one entry the caller owns: True if now cached.

        An owned entry is stored as it is, so ``admit`` never reads its
        ``now`` (only a shown entry's clone is stamped ``born=now``).
        """
        return self.admit((entry,), replacement, 0.0, rng) == 1

    def admit(
        self, entries: Iterable[CacheEntry], replacement: Policy, now: float,
        rng: random.Random, shown: bool = False, reset_num_results: bool = False,
    ) -> int:
        """Offer ``entries`` in order; return how many were kept.

        An entry is refused if its address is cached (a second entry for
        one address in a pong included) or the owner's, if the cache has
        no slots, or if it loses a full cache's contest: Random's victim is
        ``randrange``'s pick from ``residents + [candidate]`` (that list
        unbuilt), a key-based policy's its ranking's victim end or the
        candidate.  ``shown`` entries are another peer's (a pong, a
        friend's cache): each kept one is cloned, ``born=now`` and NumRes
        zeroed under ``reset_num_results`` (MR*).  Otherwise they are the
        caller's own and stored by reference.
        """
        capacity = self.capacity
        if capacity == 0:
            # A contest with no residents would burn a Random draw deciding
            # nothing: zero-slot caches refuse unconditionally.
            return 0
        owner = self.owner
        residents = self._entries
        kept = 0
        for entry in entries:
            address = entry.address
            if address == owner or address in residents:
                continue
            n = len(residents)
            if n >= capacity:
                # Full: the incoming entry competes with residents for a slot.
                if replacement.randomized:
                    i = randbelow(rng, n + 1)
                    if i == n:  # the candidate's own index: it loses
                        continue
                    order = self._order or self._reorder()
                    victim = order[i]
                    del order[i], residents[victim.address]
                else:
                    ranking = self.ranking(replacement)
                    victim = ranking.entries[-1]
                    rank = (
                        0  # the clone's NumRes, which MR* zeroes
                        if shown and reset_num_results and ranking.field == "num_res"
                        else ranking.rank(entry)
                    )
                    if (rank, address) > (ranking.ranks[-1], victim.address):
                        continue
                    del residents[victim.address]
                    self._order = None
                if self._rankings:
                    self._unrank(victim)
            if shown:
                entry = entry.copy(now, reset_num_results)
            residents[address] = entry
            if self._order is not None:
                self._order.append(entry)
            if self._rankings:
                for ranking in self._rankings.values():
                    ranking.add(entry)
            kept += 1
        return kept

    def evict(self, address: Address) -> bool:
        """Remove ``address`` (dead peer, refused probe); True if present."""
        entry = self._entries.pop(address, None)
        if entry is None:
            return False
        self._order = None
        if self._rankings:
            self._unrank(entry)
        return True

    def touch(self, address: Address, now: float) -> None:
        """Update TS after a direct interaction with ``address`` (no-op if absent)."""
        entry = self._entries.get(address)
        if entry is not None:
            placed = self._placed(entry, ("ts",)) if self._rankings else ()
            entry.touch(now)
            for ranking, rank in placed:
                ranking.move(entry, rank)

    def record_results(self, address: Address, num_results: int, now: float) -> bool:
        """Reset NumRes for ``address`` after a query reply; False if absent.

        Section 2.1's rule: NumRes becomes the reply's result count and TS
        advances (never rolls back), in this one frame: most query
        replies come from residents.

        Raises:
            ValueError: if ``num_results`` is negative.
        """
        entry = self._entries.get(address)
        if entry is None:
            return False
        if num_results < 0:
            raise ValueError(f"num_results must be >= 0, got {num_results}")
        placed = self._placed(entry, ("ts", "num_res")) if self._rankings else ()
        entry.num_res = num_results
        if now > entry.ts:
            entry.ts = now
        for ranking, rank in placed:
            ranking.move(entry, rank)
        return True

    def _reorder(self) -> List[CacheEntry]:
        """The residents in insertion order, rebuilt and kept."""
        order = self._order = list(self._entries.values())
        return order

    def _placed(self, entry: CacheEntry, fields: Tuple[str, ...]) -> list:
        """``(ranking, rank)`` for each ranking on one of ``fields``."""
        rankings = self._rankings or {}
        return [(r, r.rank(entry)) for r in rankings.values() if r.field in fields]

    def _unrank(self, entry: CacheEntry) -> None:
        for ranking in self._rankings.values() if self._rankings else ():
            ranking.remove(entry, ranking.rank(entry))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkCache(owner={self.owner}, size={len(self._entries)}/"
            f"{self.capacity})"
        )
