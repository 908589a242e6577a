"""Struct-of-arrays peer store: the one live roster, keyed by dense addresses.

At million-peer scale the simulation's hot membership questions — *is
this address alive?  is it malicious?* — were answered by hashing into
a ``dict``/``set`` per cache entry per health sample.  Addresses are
dense, monotonically increasing ints that are never reused
(:mod:`repro.network.address`), which makes them perfect array indices:
:class:`PeerStore` keeps one **byte/scalar column per fact**, so the
same questions become fixed-offset ``bytearray`` loads with no hashing,
no boxed key objects, and ~1 byte per peer per fact of RSS instead of
hash-table slots.

Columns (all indexed by address):

* ``alive`` — 1 while the peer is live; cleared at death, never reused.
* ``malicious`` — the peer's (immutable) role; meaningful whenever the
  address was ever registered.  "Live and good" is therefore
  ``alive[a] and not malicious[a]``, exactly the
  ``a in live_peers and a not in live_malicious`` double lookup it
  replaces (roles never change and addresses are never recycled).

The store also owns the live-peer **object map** (a ``dict`` preserving
birth order — iteration order is digest-load-bearing for health
sampling) and the one live roster every draw reads: the live addresses
as **ascending lists**, one for all peers and one per role, plus
``departed``, the dead in death order.  The simulation allocates an
address and adds its peer in the same call, above the reserved ghost
block, so birth order *is* ascending address order (:meth:`add` enforces
it): the k-th live peer is ``live[k]``, and the role lists are the
sorted rosters the attackers draw from
(:class:`~repro.core.malicious.AttackDirectory`).  A birth appends; a
death is a ``bisect`` and a ``del``.  Everything stays bit-identical to
the dict/set spelling: the store only changes *how* these questions are
answered, never *what* the answer is, and the golden trace digests and
report pins in ``tests/integration`` pin that.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional

from repro.core.peer import GuessPeer
from repro.network.address import Address

#: Column growth is chunked so repeated single-address growth does not
#: reallocate per peer (lists/bytearrays over-allocate, but the chunk
#: makes the worst case explicit).
_GROW_CHUNK = 256


class PeerStore:
    """Live-peer registry with struct-of-arrays scalar columns.

    Args:
        reserve: number of already-allocated addresses to cover from the
            start (the simulation's ghost-address block), so every
            column lookup for an allocated address is in bounds.

    The dense-address invariant: every address that can ever appear in
    a cache entry was handed out by the simulation's single allocator,
    and the simulation registers every allocated address (ghosts via
    ``reserve``, peers via :meth:`add` at birth) before it can circulate
    — so column reads never need a bounds check.
    """

    __slots__ = (
        "_peers",
        "_live",
        "live_malicious",
        "live_good",
        "departed",
        "_floor",
        "_alive",
        "_malicious",
    )

    def __init__(self, reserve: int = 0) -> None:
        self._peers: Dict[Address, GuessPeer] = {}
        self._live: List[Address] = []
        #: Live addresses by role, ascending; and the removed, in death
        #: order.  Read-only outside the store.
        self.live_malicious: List[Address] = []
        self.live_good: List[Address] = []
        self.departed: List[Address] = []
        #: The lowest address :meth:`add` still accepts.
        self._floor = reserve
        self._alive = bytearray(reserve)
        self._malicious = bytearray(reserve)

    # ------------------------------------------------------------------
    # Column management
    # ------------------------------------------------------------------

    def _ensure(self, address: Address) -> None:
        """Grow every column to cover ``address`` (chunked)."""
        have = len(self._alive)
        if address < have:
            return
        grow = address + 1 - have + _GROW_CHUNK
        self._alive.extend(bytes(grow))
        self._malicious.extend(bytes(grow))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, address: Address) -> bool:
        return address in self._peers

    def get(self, address: Address) -> Optional[GuessPeer]:
        """The live peer at ``address``, or None."""
        return self._peers.get(address)

    def values(self) -> Iterator[GuessPeer]:
        """Live peers in birth order (the digest-load-bearing order)."""
        return iter(self._peers.values())

    def live_peers(self) -> List[GuessPeer]:
        """Snapshot list of live peers in birth order."""
        return list(self._peers.values())

    def addresses(self) -> Iterator[Address]:
        """Live addresses in birth order."""
        return iter(self._peers.keys())

    @property
    def alive_column(self) -> bytearray:
        """The alive-flag column (read-only use; index by address)."""
        return self._alive

    @property
    def malicious_column(self) -> bytearray:
        """The role column (read-only use; index by address)."""
        return self._malicious

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def add(self, peer: GuessPeer) -> None:
        """Register a newborn peer and set its alive/role flags.

        Raises ``ValueError`` for an address not above every address the
        store has held (reserve included): the ascending lists rest on it.
        """
        address = peer.address
        if address < self._floor:
            raise ValueError(
                f"address {address!r} is not above every address the "
                f"store has held (next allowed: {self._floor})"
            )
        self._floor = address + 1
        self._ensure(address)
        self._peers[address] = peer
        self._live.append(address)
        self._alive[address] = 1
        if peer.malicious:
            self._malicious[address] = 1
            self.live_malicious.append(address)
        else:
            self.live_good.append(address)

    def remove(self, address: Address) -> Optional[GuessPeer]:
        """Unregister a departing peer; returns it (None if absent)."""
        peer = self._peers.pop(address, None)
        if peer is None:
            return None
        live = self._live
        del live[bisect_left(live, address)]
        role = self.live_malicious if peer.malicious else self.live_good
        del role[bisect_left(role, address)]
        self._alive[address] = 0
        self.departed.append(address)
        return peer

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def kth_live(self, k: int) -> GuessPeer:
        """The k-th live peer (0-based) in birth order.

        ``IndexError`` unless ``0 <= k < len(self)``: a bare list index
        would wrap a negative k round to the newest peer.
        """
        live = self._live
        if not 0 <= k < len(live):
            raise IndexError(f"kth_live({k}) out of range for {len(live)} live")
        return self._peers[live[k]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerStore(live={len(self._peers)}, "
            f"columns={len(self._alive)})"
        )
