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
attribute it ranks on and the end it prefers — MRU ``ts`` high, LRU
``ts`` low, MFS ``num_files`` high, MR ``num_res`` high — and every
role reads one order over that field, which each link cache keeps
(:class:`~repro.core.link_cache.Ranking`):

* Probe/pong roles prefer the entry at the preferred end; entries tied
  on the field go lowest address first.
* The replacement role evicts the entry at the *other* end, the highest
  address among those tied there, and the paper names replacement
  policies after what they evict — so replacement "LFS" (evict Least
  Files Shared) ranks with the MFS field, replacement "MRU" with the LRU
  one, and so on.  :data:`REPLACEMENT_KEY_POLICY` encodes that reversal.

Ties are the common case (``NumRes`` is mostly 0, free riders all share
0 files), so both tie rules are part of every digest.  ``Random`` has no
field: it declares ``randomized``, and the caches draw for it (a link
cache its pongs, ping targets and contests, a query cache its pops).  A
policy is a declaration and holds no code that reads entries.  Concrete
declarations live in :mod:`repro.core.policy_impls`; this module defines
the interface and the registry.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Type

from repro.core.entry import CacheEntry
from repro.errors import PolicyError
from repro.faults.retry import RetryPolicy


class Policy:
    """A ranking over cache entries: a field and a direction.

    Subclasses declare :attr:`field` (and :attr:`prefers_low`), or
    :attr:`randomized`, and no code: each link cache keeps the order they
    define (:class:`~repro.core.link_cache.Ranking`) or draws for Random,
    and the query cache's heap ranks on :meth:`key`.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    #: True only for the Random policy: the caches draw instead of
    #: reading a field, without isinstance checks.
    randomized: bool = False

    #: The ``CacheEntry`` attribute ranked on; empty only for Random.
    field: str = ""

    #: True when the low end of :attr:`field` is the preferred one.
    prefers_low: bool = False

    _value: Callable[[CacheEntry], float]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.field:
            cls._value = attrgetter(cls.field)
        elif not cls.randomized:
            raise PolicyError(
                f"{cls.__name__} must name the CacheEntry field it ranks on"
            )

    def key(self, entry: CacheEntry, now: float) -> float:
        """Ranking key for ``entry``; higher is preferred.

        The raw field, negated for the low end: ``num_files`` / ``num_res``
        stay ints, which order exactly as their floats below 2**53 (the
        largest claim anyone makes is ``FAKE_NUM_FILES``, 60 000).
        """
        del now  # no field ages
        value = self._value(entry)
        return -value if self.prefers_low else value

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


#: Replacement-role name -> the ordering policy whose least-preferred
#: entry it evicts.
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

    ``MR*`` — the one starred ordering the paper defines — resolves to
    the MR ordering (the starred behaviour lives in entry ingestion, not
    ranking — see ``ProtocolParams.normalized``).

    Raises:
        PolicyError: for unknown names, a star on anything else included.
    """
    try:
        return _ORDERING_REGISTRY["MR" if name == "MR*" else name]()
    except KeyError:
        raise PolicyError(
            f"unknown ordering policy {name!r}; "
            f"known: {sorted(_ORDERING_REGISTRY)} and 'MR*'"
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
