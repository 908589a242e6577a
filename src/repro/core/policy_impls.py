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

All five are declarations.  The four key-based ones name the
``CacheEntry`` field and which end of it is preferred; each link cache
keeps the order they define (:class:`~repro.core.link_cache.Ranking`).
Random declares only ``randomized``: the caches make its draws.
Eviction counterparts (LFS, LR, and the swapped LRU/MRU) reuse them
through :data:`repro.core.policies.REPLACEMENT_KEY_POLICY`.
"""

from __future__ import annotations

from repro.core.policies import Policy, register_policy


@register_policy
class RandomPolicy(Policy):
    """Uniformly random selection; the paper's baseline for every role.

    No field: a link cache draws its pong, ping target and eviction
    victim, and a query cache its next probe, uniformly.
    """

    name = "Random"
    randomized = True


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
