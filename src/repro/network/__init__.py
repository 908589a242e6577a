"""Network substrate for the GUESS simulator.

Models the pieces of a real deployment that the paper's simulation relies
on but does not make part of the contribution:

* :mod:`repro.network.address` — an address space standing in for IPv4
  addresses; addresses are never reused, so a pointer to a dead peer stays
  dead (exactly the property that makes link-cache staleness a problem).
* :mod:`repro.network.transport` — UDP probe semantics: no connection
  state, silent loss when the target is gone, a fixed round trip.
* :mod:`repro.network.unionfind` — disjoint-set forest used by the
  connectivity experiments (Figures 6 and 7).
* :mod:`repro.network.overlay` — extraction and analysis of the
  "conceptual overlay" formed by link-cache pointers (paper Figure 2).
"""

from repro.network.address import Address, AddressAllocator
from repro.network.overlay import OverlaySnapshot
from repro.network.transport import ProbeOutcome, ProbeStatus, Transport
from repro.network.unionfind import UnionFind

__all__ = [
    "Address",
    "AddressAllocator",
    "OverlaySnapshot",
    "ProbeOutcome",
    "ProbeStatus",
    "Transport",
    "UnionFind",
]
