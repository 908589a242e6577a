"""Cache entries (paper Section 2.1, format (1)).

An entry is a pointer to some peer Q::

    {IP address of Q, TS, NumFiles, NumRes}

* ``TS`` — timestamp of the last interaction with Q.  Updated whenever
  the owner interacts with Q directly (either side initiating); **not**
  updated when the entry is merely received in a Pong.
* ``NumFiles`` — number of files Q shares, set by Q when it introduces
  itself and propagated verbatim as entries are shared.  MFS/LFS rank on
  this field; the paper's poisoning results hinge on it being unverified.
* ``NumRes`` — number of results Q returned to the owner's last query.
  MR/LR rank on this; the MR* variant refuses to import other peers'
  NumRes values (see ``ProtocolParams.reset_num_results``).

One omniscient-observer field rides along (never read by any policy or
protocol path):

* ``born`` — when the *owner* acquired this pointer (seeding, pong
  import, or introduction).  Metrics compare it against the pointed-to
  peer's departure time to split dead probes into **stale** (the owner
  held the pointer when the peer died — preventable by push
  invalidation) and **dead-on-arrival** (the pointer was imported after
  the death, e.g. from another peer's stale pong or a poisoned one).

Entries are mutable (TS and NumRes change in place) and every stored
entry has exactly one owner — two peers updating one shared entry object
would be action-at-a-distance that no real network has.  The rule that
keeps it so: *a pong shows entries; whoever keeps one clones it*.  A
:class:`~repro.core.messages.Pong` carries the responder's own resident
objects as a view valid for the exchange; the receiver reads them and
stores only the keeper's clone, :meth:`CacheEntry.copy` stamped with the
import time.  The two keepers are the caches' intakes —
:meth:`~repro.core.link_cache.LinkCache.admit` of a pong and
:meth:`~repro.core.query_cache.QueryCache.add` — and each clones an
entry only once it has decided to keep it; the rumor relay, which holds
a pong past its event, holds :func:`entry_values` and clones nothing.  An
entry the receiver does not keep — most of them: the query cache has
usually seen the address already, and a full link cache's contest is
usually lost — is never cloned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple, Tuple

from repro.network.address import Address


@dataclass(slots=True)
class CacheEntry:
    """A link-cache or query-cache entry.

    Attributes:
        address: the pointed-to peer's address.
        ts: timestamp (seconds) of the owner's last interaction with it.
        num_files: advertised shared-file count.
        num_res: results it returned to the owner's last query.
        born: when the owner acquired the pointer (metrics-only; see
            module docstring).  Defaults to the construction-time ``ts``
            semantics of the bootstrap (0.0).
    """

    address: Address
    ts: float = 0.0
    num_files: int = 0
    num_res: int = 0
    born: float = 0.0

    def copy(
        self: CacheEntry | EntryView,
        born: float | None = None,
        reset_num_results: bool = False,
    ) -> CacheEntry:
        """An independent copy, for whoever keeps an entry it was shown.

        An import passes its time as ``born`` — acquisition age is the
        keeper's, never the pong carrier's (``None`` keeps this entry's:
        a snapshot) — and ``reset_num_results`` under MR*, so only
        first-hand experience ranks the entry.  Spelled via ``__new__`` +
        slot stores: skipping dataclass ``__init__`` halves the cost.
        """
        clone = object.__new__(CacheEntry)
        clone.address = self.address
        clone.ts = self.ts
        clone.num_files = self.num_files
        clone.num_res = 0 if reset_num_results else self.num_res
        clone.born = self.born if born is None else born
        return clone

    def touch(self, now: float) -> None:
        """Record a direct interaction at time ``now``.

        TS is monotone: replaying an older interaction (possible with the
        virtual probe timestamps) never rolls it back.
        """
        if now > self.ts:
            self.ts = now


class EntryView(NamedTuple):
    """An entry's fields, read (and cloned) like the entry."""

    address: Address
    ts: float
    num_files: int
    num_res: int
    born: float

    def copy(self, born: float | None = None, reset: bool = False) -> CacheEntry:
        """The keeper's clone: :meth:`CacheEntry.copy` of these fields."""
        return CacheEntry.copy(self, born, reset)


_FIELDS = attrgetter(*EntryView._fields)
_VIEW = partial(tuple.__new__, EntryView)


def entry_values(entries: Iterable[CacheEntry]) -> tuple:
    """``entries``' fields as one flat tuple of numbers (no GC tracking)."""
    return tuple(chain.from_iterable(map(_FIELDS, entries)))


def entry_views(values: tuple) -> Tuple[EntryView, ...]:
    """:func:`entry_values`' tuple read back as views, built in C."""
    return tuple(map(_VIEW, zip(*[iter(values)] * len(EntryView._fields))))
