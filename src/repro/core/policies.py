"""Policy framework (paper Section 4).

Five *policy types* govern how cache entries are used:

====================  =====================================================
QueryProbe            order in which peers are probed for a query
QueryPong             entries preferred when answering a Query with a Pong
PingProbe             order in which link-cache peers are pinged
PingPong              entries preferred when answering a Ping with a Pong
CacheReplacement      which entry is evicted from a full link cache
====================  =====================================================

All five reduce to one piece of data: **a field and a direction**.  A
key-based policy names the :class:`~repro.core.entry.CacheEntry`
attribute it ranks on and the end it prefers, and every role reads the
one order :meth:`Policy.rank` defines (each link cache keeps it, a
:class:`~repro.core.link_cache.Ranking`; a query cache's heap pops it):

* Probe/pong roles prefer the entry at the preferred end; entries tied
  on the field go lowest address first.
* The replacement role evicts the entry at the *other* end, the highest
  address among those tied there, and the paper names replacement
  policies after what they evict — so replacement "LFS" (evict Least
  Files Shared) ranks with the MFS field, replacement "MRU" with the LRU
  one, and so on.

Ties are the common case (``NumRes`` is mostly 0, free riders all share
0 files), so both tie rules are part of every digest.  ``Random`` has no
field: it declares ``randomized``, and the caches draw for it (a link
cache its pongs, ping targets and contests, a query cache its pops).

Every policy is one row of :data:`POLICY_TABLE`; adding one is adding a
row.  ``MR*`` / ``LR*`` rank as MR: their star is an ingestion rule
(``ProtocolParams.reset_num_results``), not an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.entry import CacheEntry
from repro.errors import PolicyError
from repro.faults.retry import RetryPolicy


@dataclass(frozen=True)
class Policy:
    """One ordering over cache entries: a field and a direction.

    Attributes:
        name: the ordering-role name (``"MFS"``).
        field: the ``CacheEntry`` attribute ranked on; empty only for Random.
        prefers_low: True when the low end of ``field`` is the preferred one.
        randomized: True only for Random: the caches draw instead of
            reading a field.
    """

    name: str
    field: str = ""
    prefers_low: bool = False
    randomized: bool = False

    def __post_init__(self) -> None:
        if not (self.field or self.randomized):
            raise PolicyError(
                f"policy {self.name!r} must name the CacheEntry field it ranks on"
            )

    def rank(self, entry: CacheEntry):
        """``entry``'s place: ascending is preferred first (ties: lowest
        address first, which the caller's sort or heap tuple breaks).

        The raw field, negated when the high end is preferred:
        ``num_files`` / ``num_res`` stay ints, which order exactly as their
        floats below 2**53 (the largest claim is ``FAKE_NUM_FILES``, 60 000).
        """
        value = getattr(entry, self.field)
        return value if self.prefers_low else -value


#: Each ordering beside the name the CacheReplacement role gives it:
#: replacement policies are named after what they evict, so the retain
#: goal MFS is "LFS" there, MR is "LR", and MRU and LRU swap.
POLICY_TABLE: Tuple[Tuple[Policy, str], ...] = (
    (Policy("Random", randomized=True), "Random"),
    (Policy("MRU", "ts"), "LRU"),
    (Policy("LRU", "ts", prefers_low=True), "MRU"),
    (Policy("MFS", "num_files"), "LFS"),
    (Policy("MR", "num_res"), "LR"),
)

#: Ordering-role name -> its policy.
ORDERINGS: Dict[str, Policy] = {p.name: p for p, _ in POLICY_TABLE}
ORDERINGS["MR*"] = ORDERINGS["MR"]

#: Replacement-role name -> the ordering whose least-preferred entry it evicts.
REPLACEMENTS: Dict[str, Policy] = {evicts: p for p, evicts in POLICY_TABLE}
REPLACEMENTS["LR*"] = ORDERINGS["MR"]


def get_ordering_policy(name: str) -> Policy:
    """The ordering policy named ``name`` (``MR*`` is MR).

    Raises:
        PolicyError: for unknown names, a star on anything else included.
    """
    try:
        return ORDERINGS[name]
    except KeyError:
        raise PolicyError(
            f"unknown ordering policy {name!r}; known: {sorted(ORDERINGS)}"
        ) from None


def get_replacement_policy(name: str) -> Policy:
    """The ordering whose victim end replacement role ``name`` evicts.

    Raises:
        PolicyError: for unknown names.
    """
    try:
        return REPLACEMENTS[name]
    except KeyError:
        raise PolicyError(
            f"unknown replacement policy {name!r}; known: {sorted(REPLACEMENTS)}"
        ) from None


def registered_policy_names() -> List[str]:
    """Names of the five orderings."""
    return sorted(p.name for p, _ in POLICY_TABLE)


@dataclass(frozen=True)
class PolicySet:
    """The five policies a peer runs with.

    Built from a (normalised) :class:`~repro.core.params.ProtocolParams`;
    policies are stateless, so one set is shared by every peer in a
    simulation.

    Attributes:
        query_probe / query_pong / ping_probe / ping_pong: ordering
            policies for the four probe/pong roles.
        replacement: the eviction-key policy for CacheReplacement.
        reset_num_results: the MR*/LR* ingestion flag, carried here so
            entry-import paths need only the policy set.
        retry: the :class:`~repro.faults.retry.RetryPolicy` the protocol's
            ``probe_retries`` describes, or ``None`` at ``probe_retries == 0`` —
            the probe paths then take the exact single-send code path.
    """

    query_probe: Policy
    query_pong: Policy
    ping_probe: Policy
    ping_pong: Policy
    replacement: Policy
    reset_num_results: bool = False
    retry: Optional[RetryPolicy] = None

    @classmethod
    def from_protocol(cls, protocol) -> "PolicySet":
        """The set protocol params name (normalising MR*/LR*)."""
        normalized = protocol.normalized()
        return cls(
            query_probe=get_ordering_policy(normalized.query_probe),
            query_pong=get_ordering_policy(normalized.query_pong),
            ping_probe=get_ordering_policy(normalized.ping_probe),
            ping_pong=get_ordering_policy(normalized.ping_pong),
            replacement=get_replacement_policy(normalized.cache_replacement),
            reset_num_results=normalized.reset_num_results,
            retry=(
                RetryPolicy.from_protocol(normalized)
                if normalized.probe_retries > 0
                else None
            ),
        )
