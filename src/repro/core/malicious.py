"""Malicious peers (paper Sections 3.3 and 6.4).

A malicious peer's goal is to make the system unusable by **poisoning**
good peers' link caches through the Pong mechanism:

* it never returns query results;
* its pong entries are fabricated according to ``BadPongBehavior``:

  - ``DEAD``: addresses of departed peers (non-colluding attack) — every
    probe to them is wasted, and they dilute the cache;
  - ``BAD``: addresses of *other malicious peers* (colluding attack) —
    probed, they inject yet more bad entries, so bad entries enter caches
    faster than MR can evict them (the paper's key collusion result);
  - ``GOOD``: addresses of good peers (a camouflage control case);

* fabricated entries carry inflated ``NumFiles``/``NumRes`` so that the
  trusting MFS and (pong-carried) MR rankings prefer them — the paper's
  explanation for why MFS collapses and MR* survives.

Malicious peers are *passive* attackers here, as in the paper's model:
they respond to probes but originate no pings or queries of their own
(Section 6.4 describes them purely through their responses).

A second, milder adversary lives alongside them: the
:class:`FaultyReporter` (à la Consenzus), a peer with a *real* library
that follows the protocol except for misreporting query result counts —
inflating them by a fixed offset or suppressing them entirely (and, in
suppress mode, refusing to relay gossip rumors).  Replies carry the
omniscient ``true_results`` field so metrics can keep an honest
satisfaction channel next to the perceived one.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Sequence

from repro.core.entry import CacheEntry
from repro.core.messages import Pong, Query, QueryReply
from repro.core.params import BadPongBehavior
from repro.core.peer import GuessPeer
from repro.core.peer_store import PeerStore
from repro.network.address import Address
from repro.workload.content import EMPTY_LIBRARY

#: Advertised library size: above the honest distribution's upper bound
#: (50k), so MFS always prefers a poisoned entry to any honest one.
FAKE_NUM_FILES = 60_000

#: Advertised past-results count carried on fabricated entries; large
#: enough that pong-trusting MR ranks them first.
FAKE_NUM_RES = 25


class AttackDirectory:
    """Shared intelligence the attacker coalition draws on.

    The coalition reads the simulation's :class:`PeerStore`, the one
    live roster: its departed addresses (for ``DEAD`` pongs), its live
    malicious roster (for ``BAD`` pongs) and its live good roster (for
    ``GOOD`` pongs), each an ascending or death-order list the store
    keeps.  The directory adds only a pool of "ghost" addresses that
    were never registered — used to fabricate dead targets before any
    real peer has died.
    """

    def __init__(
        self, store: PeerStore, ghost_addresses: Sequence[Address] = ()
    ) -> None:
        self._store = store
        self._ghosts: List[Address] = list(ghost_addresses)

    def sample_dead(self, rng: random.Random, k: int) -> List[Address]:
        """Up to ``k`` departed addresses; ghosts until the first death."""
        pool = self._store.departed or self._ghosts
        if k <= 0 or not pool:
            return []
        return [pool[rng.randrange(len(pool))] for _ in range(k)]

    def sample_malicious(
        self, rng: random.Random, k: int, exclude: Address
    ) -> List[Address]:
        """Up to ``k`` live malicious addresses other than ``exclude``."""
        if k <= 0:
            return []
        # The roster is ascending, so the draw (and the pong entry order
        # when k >= len(pool)) depends only on who is live.
        roster = self._store.live_malicious
        # The pool is the roster minus ``exclude``; sampling positions of
        # it and stepping over the gap is ``rng.sample(pool, k)`` draw for
        # draw, without building the pool for every pong.
        size = len(roster)
        gap = bisect_left(roster, exclude)
        if gap < size and roster[gap] == exclude:
            size -= 1
        else:
            gap = size
        if k >= size:
            return roster[:gap] + roster[gap + 1:]
        return [roster[i + (i >= gap)] for i in rng.sample(range(size), k)]

    def sample_good(self, rng: random.Random, k: int) -> List[Address]:
        """Up to ``k`` live good addresses."""
        if k <= 0:
            return []
        roster = self._store.live_good
        if k >= len(roster):
            return list(roster)
        return rng.sample(roster, k)


class MaliciousPeer(GuessPeer):
    """A cache-poisoning peer.

    Same constructor as :class:`GuessPeer` plus the attack wiring; it
    advertises :data:`FAKE_NUM_FILES` regardless of the (empty) library
    it actually holds, shares no files, and fabricates every pong.

    Args:
        behavior: what goes into its pongs (Table 1 ``BadPongBehavior``).
        directory: the shared :class:`AttackDirectory`.
        attack_rng: stream for fabrication randomness.
    """

    malicious = True

    __slots__ = ("behavior", "_directory", "_attack_rng")

    def __init__(
        self,
        *args,
        behavior: BadPongBehavior,
        directory: AttackDirectory,
        attack_rng: random.Random,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.behavior = behavior
        self._directory = directory
        self._attack_rng = attack_rng
        # The lie: advertise a huge library no matter what we hold.
        self.num_files = FAKE_NUM_FILES
        self.library = EMPTY_LIBRARY

    def make_pong(self, pong_policy, time: float) -> Pong:
        """Fabricate a poisoned pong (ignores the cache and the policy)."""
        del pong_policy  # malicious peers do not consult real caches
        k = self.protocol.pong_size
        rng = self._attack_rng
        if self.behavior is BadPongBehavior.DEAD:
            addresses = self._directory.sample_dead(rng, k)
        elif self.behavior is BadPongBehavior.BAD:
            addresses = self._directory.sample_malicious(
                rng, k, exclude=self.address
            )
        else:
            addresses = self._directory.sample_good(rng, k)
        entries = tuple(
            CacheEntry(
                address=address,
                ts=time,
                num_files=FAKE_NUM_FILES,
                num_res=FAKE_NUM_RES,
            )
            for address in addresses
        )
        return Pong(self.address, entries)

    def _handle_query(self, message, time: float):
        """Answer with zero results and a poisoned pong (Section 6.4)."""
        reply = super()._handle_query(message, time)
        # super() counted a match against our (empty) library: force zero
        # results explicitly for clarity and future-proofing.
        if reply.num_results:
            raise AssertionError("malicious peers must not return results")
        return reply


class FaultyReporter(GuessPeer):
    """A protocol-following peer that lies about result counts.

    Same constructor as :class:`GuessPeer` plus the misreporting knobs.
    Unlike :class:`MaliciousPeer` it holds a real library, serves honest
    pongs, pings, and queries of its own — only the ``num_results`` claim
    in its query replies is falsified:

    * ``"inflate"``: claim ``true + report_offset`` results, so even a
      peer with no match advertises hits (and the inflated claim feeds
      the trusting MR ranking at the prober);
    * ``"suppress"``: claim zero results and refuse to relay gossip
      rumors (:attr:`suppresses_gossip`).

    Every falsified reply carries ``true_results`` so collectors can
    account satisfaction honestly while ``results_per_query`` shows the
    perceived (inflated/deflated) count.

    Args:
        report_mode: ``"inflate"`` or ``"suppress"``.
        report_offset: results added per reply in inflate mode.
    """

    faulty = True

    __slots__ = ("report_mode", "report_offset", "suppresses_gossip")

    def __init__(
        self,
        *args,
        report_mode: str = "inflate",
        report_offset: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if report_mode not in ("inflate", "suppress"):
            raise ValueError(
                f"report_mode must be 'inflate' or 'suppress', "
                f"got {report_mode!r}"
            )
        if report_offset < 1:
            raise ValueError(
                f"report_offset must be >= 1, got {report_offset}"
            )
        self.report_mode = report_mode
        self.report_offset = int(report_offset)
        self.suppresses_gossip = report_mode == "suppress"

    def _handle_query(self, message: Query, time: float) -> QueryReply:
        """The honest reply, with the claim falsified per the mode."""
        reply = super()._handle_query(message, time)
        true_results = reply.num_results
        if self.report_mode == "inflate":
            claimed = true_results + self.report_offset
        else:
            claimed = 0
        if claimed == true_results:
            return reply  # suppressing a zero is not a lie
        return QueryReply(
            sender=reply.sender,
            num_results=claimed,
            pong=reply.pong,
            true_results=true_results,
        )
