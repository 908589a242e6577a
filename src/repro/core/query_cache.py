"""The query cache (paper Section 2.3).

A temporary, (theoretically) unbounded "scratch space" of pointers
accumulated from the Pong messages received while executing one query.
It lets the querying peer probe far more peers than its small link cache
can hold.  Properties the paper specifies:

* it is seeded from the link cache, and entries have the same format;
* an address already seen this query (probed, cached, or pooled) is not
  added again;
* candidates are probed in QueryProbe order;
* the cache is **discarded when the query completes** — maintaining it
  would cost too much (entries may still graduate to the link cache via
  the normal CacheReplacement path, handled by the search loop).

An admitted entry is wanted for one thing only — to be popped, best
first — so the cache *is* the query's candidate pool and holds unprobed
candidates in the pop structure alone.  For key-based policies that is a
min-heap on ``(Policy.rank, address)``, the order a link cache's
:class:`~repro.core.link_cache.Ranking` keeps: ranks are fixed at
admission, which is exact for every policy in the paper (an entry's rank
only changes when it is probed, at which point it has already left the
pool).  For the Random policy it is an array with O(1) swap-remove
random pops.

Determinism audit (RD003): ``_seen`` is a set used for membership tests
only and is never iterated; pop order is the heap's total order on
``(rank, address)``, or the bag's insertion order under the policy stream.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.entry import CacheEntry
from repro.core.policies import Policy
from repro.network.address import Address
from repro.sim.rng import randbelow


class QueryCache:
    """Per-query scratch cache of probe candidates, popped best-first.

    Args:
        owner: the querying peer's address (never admitted).
        policy: the QueryProbe policy ordering the pops.
        rng: policy randomness stream (drawn from by Random pops only).
        link_entries: the link-cache contents at query start — the first
            candidates; pong entries duplicating them are not re-added.
    """

    __slots__ = ("_policy", "_rng", "_seen", "_heap", "_bag")

    def __init__(
        self,
        owner: Address,
        policy: Policy,
        rng: random.Random,
        link_entries: Sequence[CacheEntry],
    ) -> None:
        self._policy = policy
        self._rng = rng
        self._seen: Set[Address] = {entry.address for entry in link_entries}
        self._seen.add(owner)
        self._bag = list(link_entries) if policy.randomized else []
        self._heap: List[Tuple[float, Address, CacheEntry]] = []
        if not policy.randomized:
            rank = policy.rank
            self._heap = [(rank(e), e.address, e) for e in link_entries]
            heapq.heapify(self._heap)

    def __len__(self) -> int:
        """Candidates admitted and not yet popped."""
        return len(self._bag) if self._policy.randomized else len(self._heap)

    def add(
        self, entries: Iterable[CacheEntry], reset_num_results: bool, now: float
    ) -> List[CacheEntry]:
        """Admit a pong's ``entries`` whose address is unseen this query.

        Seen are the owner and every address seeded or admitted (popped or
        not), so also a second entry for one address.  Each admitted entry
        is cloned (``born=now``, NumRes zeroed under ``reset_num_results``,
        MR*), a refused one never; returns the clones, in pong order.
        """
        seen = self._seen
        kept: List[CacheEntry] = []
        for entry in entries:
            address = entry.address
            if address in seen:
                continue
            seen.add(address)
            kept.append(entry.copy(now, reset_num_results))
        if self._policy.randomized:
            self._bag += kept
        else:
            rank, heap = self._policy.rank, self._heap
            for entry in kept:
                heapq.heappush(heap, (rank(entry), entry.address, entry))
        return kept

    def pop(self) -> Optional[CacheEntry]:
        """Pop the most-preferred candidate (it stays seen); None if empty."""
        if self._policy.randomized:
            bag = self._bag
            if not bag:
                return None
            index = randbelow(self._rng, len(bag))
            bag[index], bag[-1] = bag[-1], bag[index]
            return bag.pop()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]
