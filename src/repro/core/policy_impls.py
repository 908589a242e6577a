"""Concrete policies (paper Section 4).

========  ==========================================================
Random    baseline; uniformly random choices, fairest load spread
MRU       prefer most recent TS — entries most likely still alive
LRU       prefer oldest TS — fairness by spreading load, risks dead
MFS       prefer most advertised files — likeliest to hold answers
MR        prefer most results returned to *my* last query — personal
          usefulness, harder to game than MFS
MR*       MR ranking over first-hand NumRes only (the ingestion-time
          reset lives in ``ProtocolParams.reset_num_results``)
========  ==========================================================

The four key-based ones are declarations — the ``CacheEntry`` field and
which end of it is preferred; each link cache keeps the order they
define (:class:`~repro.core.link_cache.Ranking`).  Eviction counterparts
(LFS, LR, and the swapped LRU/MRU) reuse them through
:data:`repro.core.policies.REPLACEMENT_KEY_POLICY`.
"""

from __future__ import annotations

import random
from itertools import islice
from math import ceil, log
from typing import Iterable, List, Optional, Sequence

from repro.core.entry import CacheEntry
from repro.core.policies import Policy, register_policy
from repro.sim.rng import randbelow


@register_policy
class RandomPolicy(Policy):
    """Uniformly random selection; the paper's baseline for every role."""

    name = "Random"
    randomized = True

    def select_best(
        self,
        entries: Sequence[CacheEntry],
        now: float,
        rng: random.Random,
    ) -> Optional[CacheEntry]:
        if not entries:
            return None
        return entries[randbelow(rng, len(entries))]

    #: A full cache evicts the way a probe picks: one uniform draw.
    choose_victim = select_best

    def select_top(
        self,
        entries: Sequence[CacheEntry],
        k: int,
        now: float,
        rng: random.Random,
    ) -> List[CacheEntry]:
        n = len(entries)
        if k <= 0 or not n:
            return []
        if k >= n:
            ordered = list(entries)
            rng.shuffle(ordered)
            return ordered
        # What ``sample`` returns, draw for draw, once per pong: without its
        # argument checks and without a ``_randbelow`` frame per index.
        getrandbits = rng.getrandbits
        if n <= (21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))):
            # sample's branch for a population this small (caches of ten):
            # swap-remove from a pool, each index below the m still in it.
            pool = list(entries)
            top: List[CacheEntry] = []
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                top.append(pool[j])
                pool[j] = pool[m - 1]
            return top
        # Above it, k distinct indices by rejection: the ``_randbelow`` loop
        # and ``while j in selected`` are one loop; k is PongSize (5).
        bits = n.bit_length()
        picked: List[int] = []
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.append(j)
        return [entries[j] for j in picked]

    def choose_victim_from(
        self,
        residents: Iterable[CacheEntry],
        n_residents: int,
        candidate: CacheEntry,
        now: float,
        rng: random.Random,
    ) -> Optional[CacheEntry]:
        # The one draw and the element ``choose_victim`` would take from
        # list(residents) + [candidate], with no combined-list allocation.
        i = randbelow(rng, n_residents + 1)
        if i == n_residents:
            return candidate
        return next(islice(residents, i, None))


@register_policy
class MostRecentlyUsedPolicy(Policy):
    """Prefer the freshest TS: least likely to be dead, least wasted work."""

    name = "MRU"
    field = "ts"


@register_policy
class LeastRecentlyUsedPolicy(Policy):
    """Prefer the stalest TS: spreads load fairly, risks dead probes."""

    name = "LRU"
    field = "ts"
    prefers_low = True


@register_policy
class MostFilesSharedPolicy(Policy):
    """Prefer peers advertising the largest libraries.

    The global measure makes it both the most efficient honest-network
    policy (Figures 10/11) and the least robust to lying peers
    (Figures 16-21): NumFiles is whatever the pong claimed.
    """

    name = "MFS"
    field = "num_files"


@register_policy
class MostResultsPolicy(Policy):
    """Prefer peers that answered (my) queries before.

    NumRes captures *personal* usefulness and is refreshed on every direct
    probe, which is what makes MR self-correcting against non-colluding
    poisoners (a malicious peer returns no results, so one probe zeroes
    its rank).
    """

    name = "MR"
    field = "num_res"
