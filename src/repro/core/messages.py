"""GUESS wire messages.

Four message kinds cover the protocol (paper Section 2):

* :class:`Ping` — link-cache maintenance probe.
* :class:`Query` — a search probe carrying the target descriptor.
* :class:`Pong` — the reply to a Ping, and also piggybacked on every
  query reply; shows the receiver a selection of the responder's cache
  entries.
* :class:`QueryReply` — results count plus the piggybacked Pong.

Every probe carries the sender's address and advertised file count so the
receiver can apply the introduction rule (add the prober to its own cache
with probability ``IntroProb``) without a separate handshake.

The gossip-assisted GUESS hybrid (:mod:`repro.baselines.gossip`) adds a
fifth exchange: :class:`GossipPush` carries an epidemically disseminated
pong harvest and is answered by a :class:`GossipAck`.

The freshness layer (:mod:`repro.freshness`) adds a sixth:
:class:`CacheUpdate` carries a CUP-style push-invalidation notice about
a departed (or overloaded) address and is answered by a
:class:`CacheUpdateAck` whose piggybacked Pong offers replacement
candidates — a purge is also a refresh opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

from repro.core.entry import CacheEntry, EntryView
from repro.network.address import Address


@dataclass(frozen=True, slots=True)
class Ping:
    """Maintenance probe: "are you alive, and who do you know?"."""

    sender: Address
    sender_num_files: int = 0


@dataclass(frozen=True, slots=True)
class Query:
    """Search probe for ``target_file`` (a content-catalog rank)."""

    sender: Address
    target_file: int
    sender_num_files: int = 0


class _PongFields(NamedTuple):
    sender: Address
    entries: Tuple[CacheEntry, ...]


class Pong(_PongFields):
    """Cache-entry sharing payload.

    A pong *shows* entries; whoever keeps one clones it.  ``entries`` are
    the responder's own link-cache residents (selected by its PingPong or
    QueryPong policy), valid as a view for the exchange that delivered
    them: a receiver reads them and stores only its own clone
    (:meth:`~repro.core.entry.CacheEntry.copy` stamped with the import
    time, made by the cache that keeps the entry), never mutates them in
    place.  (A rumor relay holds values; its hops show views of them.)

    A named tuple, like :class:`QueryReply` and
    :class:`~repro.network.transport.ProbeOutcome`: one is built per
    delivered probe, and a tuple is immutable without a per-field
    ``object.__setattr__``.  Per probe, all three are built by
    ``tuple.__new__`` itself, without the Python frame of a ``__new__``.
    """

    __slots__ = ()

    def __new__(
        cls, sender: Address, entries: Iterable[CacheEntry | EntryView] = ()
    ) -> "Pong":
        if type(entries) is not tuple:
            entries = tuple(entries)
        return tuple.__new__(cls, (sender, entries))


class QueryReply(NamedTuple):
    """Reply to a Query probe.

    Attributes:
        sender: responder address.
        num_results: results found for the query (0 if none) — the
            *claimed* count; a faulty reporter may misstate it.
        pong: piggybacked cache-entry sharing (Section 2.3: a probed peer
            returns a Pong whether or not it found a match).
        true_results: omniscient-observer field (never visible to the
            protocol): the responder's actual match count when it differs
            from the claim.  ``None`` means the claim is honest.
    """

    sender: Address
    num_results: int
    pong: Pong
    true_results: Optional[int] = None

    @property
    def verified_results(self) -> int:
        """The honest result count (the claim, unless it was a lie)."""
        return (
            self.num_results if self.true_results is None else self.true_results
        )


@dataclass(frozen=True, slots=True)
class Refusal:
    """Overload notice: "back off" (paper Section 5.1/6.3)."""

    sender: Address


class GossipPush(NamedTuple):
    """Epidemic pong-harvest rumor (gossip-assisted GUESS).

    Attributes:
        sender: the peer forwarding the rumor (this hop's carrier).
        origin: the peer whose ping harvest seeded the rumor.
        entries: the hop's views of the rumor's snapshot of the pong.
        ttl: remaining forwarding hops after this delivery.
    """

    sender: Address
    origin: Address
    entries: Tuple[EntryView, ...] = ()
    ttl: int = 1


class GossipAck(NamedTuple):
    """Reply to a :class:`GossipPush` (a named tuple: one per delivery).

    Attributes:
        sender: the acknowledging peer.
        imported: entries the receiver actually admitted to its cache.
    """

    sender: Address
    imported: int = 0


@dataclass(frozen=True, slots=True)
class CacheUpdate:
    """Push-invalidation notice (CUP-style controlled update propagation).

    Attributes:
        sender: the peer (or departing peer) sending the notice — hop 0
            of a departure wave is sent *by* the subject as it leaves.
        subject: the address the notice is about.
        departed: True for a departure (receivers purge the entry);
            False for an overload report (receivers with circuit
            breakers record a remote refusal instead of purging).
    """

    sender: Address
    subject: Address
    departed: bool = True


@dataclass(frozen=True, slots=True)
class CacheUpdateAck:
    """Reply to a :class:`CacheUpdate`.

    Attributes:
        sender: the acknowledging peer.
        purged: whether the receiver actually held (and purged or
            breaker-flagged) the stale entry — the interest-path signal
            gating further propagation.
        pong: replacement candidates from the receiver's cache, imported
            by live notifiers so every purge doubles as a refresh.
    """

    sender: Address
    purged: bool
    pong: Pong
