"""The query cache (paper Section 2.3).

A temporary, (theoretically) unbounded "scratch space" of pointers
accumulated from the Pong messages received while executing one query.
It lets the querying peer probe far more peers than its small link cache
can hold.  Properties the paper specifies:

* entries have the same format as link-cache entries;
* an address already seen this query (probed, cached, or pooled) is not
  added again;
* the cache is **discarded when the query completes** — maintaining it
  would cost too much (entries may still graduate to the link cache via
  the normal CacheReplacement path, handled by the search loop).

Determinism audit (RD003): ``_seen`` is a set used for membership tests
only and is never iterated; candidate ordering always flows through
``_entries``, an insertion-ordered dict, so ``entries()`` /
``addresses()`` hand policy selection a deterministic sequence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.core.entry import CacheEntry
from repro.network.address import Address


class QueryCache:
    """Per-query scratch cache of candidate probe targets.

    Args:
        owner: the querying peer's address (never admitted).
        excluded: addresses already known at query start (the link-cache
            contents); pong entries duplicating them are not re-added.
    """

    __slots__ = ("owner", "_entries", "_seen")

    def __init__(self, owner: Address, excluded: Set[Address] | None = None) -> None:
        self.owner = owner
        self._entries: Dict[Address, CacheEntry] = {}
        self._seen: Set[Address] = set(excluded or ())
        self._seen.add(owner)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Address) -> bool:
        return address in self._entries

    def add(self, entry: CacheEntry) -> bool:
        """Admit ``entry`` unless its address has been seen this query.

        Returns:
            True if admitted.
        """
        address = entry.address
        if address in self._seen:
            return False
        self._seen.add(address)
        self._entries[address] = entry
        return True

    def mark_seen(self, address: Address) -> None:
        """Record that ``address`` has been probed (or otherwise consumed)."""
        self._seen.add(address)

    def was_seen(self, address: Address) -> bool:
        """Whether ``address`` is excluded from (re-)admission.

        True for the owner and for every address excluded, probed or
        pooled this query — exactly when :meth:`add` would refuse it, so
        pong ingestion asks here *before* copying an entry.
        """
        return address in self._seen

    def pop(self, address: Address) -> Optional[CacheEntry]:
        """Remove and return the entry for ``address`` (it stays seen)."""
        return self._entries.pop(address, None)

    def entries(self) -> List[CacheEntry]:
        """Snapshot of current (unconsumed) entries."""
        return list(self._entries.values())

    def addresses(self) -> Iterator[Address]:
        return iter(self._entries.keys())

    def clear(self) -> None:
        """Discard the scratch space (query completed)."""
        self._entries.clear()
        self._seen.clear()
        self._seen.add(self.owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryCache(owner={self.owner}, size={len(self._entries)})"
