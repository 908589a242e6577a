"""Malicious-peer detection from pong provenance (paper §6.4 future work).

    "Detecting malicious peers can be accomplished using heuristics —
    for example, if a group of peers constantly include each other in
    pongs, or if a peer consistently returns many dead IP addresses in
    its Pong."

:class:`PongDefense` implements both heuristics for one good peer and
plugs into the core through the ``GuessPeer.defense`` hook (the import
paths report provenance; the search loop reports probe outcomes and
skips blacklisted targets):

* **dead-pong heuristic** — every imported entry remembers which source
  shared it; when a probed entry turns out dead, its sources are
  charged.  A source whose shared entries keep dying gets blacklisted.
* **clique heuristic** — a source whose shared entries never answer a
  query (zero results across many observations) while pointing at a
  small repeating set of addresses is charged as a suspected colluder.

Blacklisting is deliberately local and conservative: false positives
merely cost one peer some pointers, exactly the autonomy-preserving
stance the paper takes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Set

from repro.errors import ConfigError
from repro.network.address import Address


@dataclass(frozen=True)
class DefenseConfig:
    """Tuning for :class:`PongDefense`.

    Attributes:
        min_observations: entries a source must have shared before it
            can be judged (avoids blacklisting on noise).
        dead_fraction_threshold: fraction of a source's shared entries
            found dead that triggers blacklisting.
        barren_fraction_threshold: fraction of a source's shared entries
            probed-with-zero-results that triggers blacklisting (the
            colluding-clique signature: alive but never useful).
    """

    min_observations: int = 10
    dead_fraction_threshold: float = 0.6
    barren_fraction_threshold: float = 0.9

    def __post_init__(self) -> None:
        if self.min_observations < 1:
            raise ConfigError(
                f"min_observations must be >= 1, got {self.min_observations}"
            )
        for name, value in (
            ("dead_fraction_threshold", self.dead_fraction_threshold),
            ("barren_fraction_threshold", self.barren_fraction_threshold),
        ):
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")


@dataclass
class _SourceRecord:
    shared: int = 0
    dead: int = 0
    barren: int = 0     # shared entries probed that returned 0 results
    productive: int = 0  # shared entries probed that returned results


class PongDefense:
    """Provenance tracker + blacklist for one good peer.

    Implements the informal protocol the core hooks expect:
    ``record_import``, ``record_dead``, ``record_answer``, ``blocked``.
    """

    def __init__(self, config: DefenseConfig | None = None) -> None:
        self.config = config or DefenseConfig()
        self._sources: Dict[Address, _SourceRecord] = defaultdict(_SourceRecord)
        # entry address -> sources that shared it (an entry can be
        # advertised by several peers; all are charged for its fate).
        self._provenance: Dict[Address, Set[Address]] = defaultdict(set)
        self._blacklist: Set[Address] = set()

    # ------------------------------------------------------------------
    # Core hooks
    # ------------------------------------------------------------------

    def record_import(self, entry_address: Address, source: Address) -> None:
        """An entry for ``entry_address`` arrived in a pong from ``source``."""
        if source in self._blacklist:
            return
        self._provenance[entry_address].add(source)
        self._sources[source].shared += 1

    def record_dead(self, address: Address) -> None:
        """A probe to ``address`` timed out; charge everyone who shared it."""
        for source in self._provenance.pop(address, ()):  # consume fate once
            record = self._sources[source]
            record.dead += 1
            self._judge(source, record)

    def record_answer(self, address: Address, num_results: int) -> None:
        """A probe to ``address`` was answered with ``num_results`` results."""
        for source in self._provenance.pop(address, ()):
            record = self._sources[source]
            if num_results > 0:
                record.productive += 1
            else:
                record.barren += 1
                self._judge(source, record)

    def blocked(self, address: Address) -> bool:
        """Whether ``address`` is blacklisted."""
        return address in self._blacklist

    # ------------------------------------------------------------------
    # Judgement
    # ------------------------------------------------------------------

    def _judge(self, source: Address, record: _SourceRecord) -> None:
        observed = record.dead + record.barren + record.productive
        if observed < self.config.min_observations:
            return
        if record.dead / observed >= self.config.dead_fraction_threshold:
            self._blacklist.add(source)
            return
        if record.productive == 0 and (
            record.barren / observed >= self.config.barren_fraction_threshold
        ):
            self._blacklist.add(source)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def source_stats(self, source: Address) -> tuple[int, int, int, int]:
        """``(shared, dead, barren, productive)`` for ``source``."""
        record = self._sources.get(source, _SourceRecord())
        return (record.shared, record.dead, record.barren, record.productive)


def install_defense(sim, config: DefenseConfig | None = None) -> None:
    """Equip every current *and future* good peer of ``sim`` with defense.

    Wraps the simulation's spawn seam so newborns are protected too.
    """
    for peer in sim.live_peers:
        if not peer.malicious:
            peer.defense = PongDefense(config)

    inner = sim._peer_spawned

    def spawned(peer):
        inner(peer)
        if not peer.malicious:
            peer.defense = PongDefense(config)

    sim._peer_spawned = spawned
