"""Policy framework (paper Section 4).

Five *policy types* govern how cache entries are used:

====================  =====================================================
QueryProbe            order in which peers are probed for a query
QueryPong             entries preferred when answering a Query with a Pong
PingProbe             order in which link-cache peers are pinged
PingPong              entries preferred when answering a Ping with a Pong
CacheReplacement      which entry is evicted from a full link cache
====================  =====================================================

All five reduce to one abstraction: a **ranking** over entries.

* Probe/pong roles prefer the entry with the *highest* key.
* The replacement role evicts the entry with the *lowest* key, and the
  paper names replacement policies after what they evict — so replacement
  "LFS" (evict Least Files Shared) ranks with the MFS key, replacement
  "MRU" (evict Most Recently Used) ranks with the LRU key, and so on.
  :data:`REPLACEMENT_KEY_POLICY` encodes that reversal.

Concrete key functions live in :mod:`repro.core.policy_impls`; this module
defines the interface and the registry.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.core.entry import CacheEntry
from repro.errors import PolicyError
from repro.faults.retry import RetryPolicy


class Policy(ABC):
    """A ranking over cache entries.

    Subclasses implement :meth:`key`; the framework supplies selection
    (best-first), pong construction (top-k) and eviction (worst-first).
    ``Random`` overrides the selection methods directly since it has no
    meaningful key.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    #: True only for the Random policy; lets hot paths (the candidate
    #: pool) pick a cheap strategy without isinstance checks.
    randomized: bool = False

    @abstractmethod
    def key(self, entry: CacheEntry, now: float) -> float:
        """Ranking key for ``entry`` at time ``now``; higher is preferred."""

    # ------------------------------------------------------------------
    # Selection (probe ordering)
    # ------------------------------------------------------------------

    def select_best(
        self,
        entries: Sequence[CacheEntry],
        now: float,
        rng: random.Random,
    ) -> Optional[CacheEntry]:
        """The single most-preferred entry, or None if ``entries`` is empty.

        Ties break on address for determinism (two entries never share an
        address within one cache).
        """
        if not entries:
            return None
        del rng  # deterministic policies ignore the stream
        return max(entries, key=lambda e: (self.key(e, now), -e.address))

    def order(
        self,
        entries: Iterable[CacheEntry],
        now: float,
        rng: random.Random,
    ) -> List[CacheEntry]:
        """All entries, most-preferred first."""
        del rng
        return sorted(
            entries, key=lambda e: (self.key(e, now), -e.address), reverse=True
        )

    def select_top(
        self,
        entries: Sequence[CacheEntry],
        k: int,
        now: float,
        rng: random.Random,
    ) -> List[CacheEntry]:
        """The ``k`` most-preferred entries (pong construction)."""
        if k <= 0:
            return []
        return self.order(entries, now, rng)[:k]

    # ------------------------------------------------------------------
    # Eviction (replacement role)
    # ------------------------------------------------------------------

    def choose_victim(
        self,
        entries: Sequence[CacheEntry],
        now: float,
        rng: random.Random,
    ) -> Optional[CacheEntry]:
        """The least-preferred entry — the one a full cache evicts."""
        if not entries:
            return None
        del rng
        return min(entries, key=lambda e: (self.key(e, now), -e.address))

    def choose_victim_from(
        self,
        residents: Iterable[CacheEntry],
        n_residents: int,
        candidate: CacheEntry,
        now: float,
        rng: random.Random,
    ) -> Optional[CacheEntry]:
        """Victim among ``residents`` plus ``candidate`` — allocation-free.

        The hot path of a full :class:`~repro.core.link_cache.LinkCache`:
        semantically identical to
        ``choose_victim(list(residents) + [candidate], now, rng)`` (the
        candidate logically last, ties resolved identically) without
        materialising the combined contestant list per insert.

        Subclasses that override :meth:`choose_victim` but not this
        method keep their exact semantics through the list-building
        fallback below.
        """
        if type(self).choose_victim is not Policy.choose_victim:
            contestants = list(residents)
            contestants.append(candidate)
            return self.choose_victim(contestants, now, rng)
        del rng, n_residents
        return min(
            chain(residents, (candidate,)),
            key=lambda e: (self.key(e, now), -e.address),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


_ORDERING_REGISTRY: Dict[str, Type[Policy]] = {}


def register_policy(cls: Type[Policy]) -> Type[Policy]:
    """Class decorator adding a Policy subclass to the registry."""
    if not cls.name:
        raise PolicyError("policy classes must set a non-empty name")
    if cls.name in _ORDERING_REGISTRY:
        raise PolicyError(f"duplicate policy name {cls.name!r}")
    _ORDERING_REGISTRY[cls.name] = cls
    return cls


#: Replacement-role name -> ordering-policy name whose key ranks it.
#: Eviction takes the *minimum* key, so "evict Least Files Shared" uses
#: the MFS key, and "evict Most Recently Used" uses the LRU key (whose
#: maximum is the least-recently-used entry, hence minimum is most-recent).
REPLACEMENT_KEY_POLICY: Dict[str, str] = {
    "Random": "Random",
    "LRU": "MRU",   # evict least-recently-used -> min TS -> MRU key
    "MRU": "LRU",   # evict most-recently-used  -> max TS -> LRU key
    "LFS": "MFS",   # evict least files shared  -> min NumFiles -> MFS key
    "LR": "MR",     # evict least results       -> min NumRes  -> MR key
    "LR*": "MR",    # starred variant normalises to MR + reset flag
}


def get_ordering_policy(name: str) -> Policy:
    """Instantiate the ordering policy registered as ``name``.

    ``MR*`` resolves to the MR ordering (the starred behaviour lives in
    entry ingestion, not ranking — see ``ProtocolParams.normalized``).

    Raises:
        PolicyError: for unknown names.
    """
    base = name.rstrip("*") if name.endswith("*") else name
    try:
        return _ORDERING_REGISTRY[base]()
    except KeyError:
        raise PolicyError(
            f"unknown ordering policy {name!r}; known: {sorted(_ORDERING_REGISTRY)}"
        ) from None


def get_replacement_policy(name: str) -> Policy:
    """Instantiate the key policy for replacement role ``name``.

    Raises:
        PolicyError: for unknown names.
    """
    try:
        key_name = REPLACEMENT_KEY_POLICY[name]
    except KeyError:
        raise PolicyError(
            f"unknown replacement policy {name!r}; "
            f"known: {sorted(REPLACEMENT_KEY_POLICY)}"
        ) from None
    return get_ordering_policy(key_name)


def registered_policy_names() -> List[str]:
    """Names of all registered ordering policies."""
    return sorted(_ORDERING_REGISTRY)


class PolicySet:
    """The five instantiated policies a peer runs with.

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
            retry knobs describe, or ``None`` at ``probe_retries == 0`` —
            the probe paths then take the exact single-send code path.
    """

    __slots__ = (
        "query_probe",
        "query_pong",
        "ping_probe",
        "ping_pong",
        "replacement",
        "reset_num_results",
        "retry",
    )

    def __init__(
        self,
        query_probe: Policy,
        query_pong: Policy,
        ping_probe: Policy,
        ping_pong: Policy,
        replacement: Policy,
        reset_num_results: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.query_probe = query_probe
        self.query_pong = query_pong
        self.ping_probe = ping_probe
        self.ping_pong = ping_pong
        self.replacement = replacement
        self.reset_num_results = bool(reset_num_results)
        self.retry = retry

    @classmethod
    def from_protocol(cls, protocol) -> "PolicySet":
        """Instantiate the set from protocol params (normalising MR*/LR*)."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicySet(query_probe={self.query_probe.name}, "
            f"query_pong={self.query_pong.name}, "
            f"ping_probe={self.ping_probe.name}, "
            f"ping_pong={self.ping_pong.name}, "
            f"replacement_key={self.replacement.name}, "
            f"reset_num_results={self.reset_num_results})"
        )
