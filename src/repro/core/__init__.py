"""The GUESS protocol — the paper's primary contribution.

Public surface:

* :class:`~repro.core.params.SystemParams` /
  :class:`~repro.core.params.ProtocolParams` — Tables 1 and 2.
* :class:`~repro.core.network_sim.GuessSimulation` — a runnable network;
  import it from :mod:`repro` or :mod:`repro.core.network_sim`.  It is
  not re-exported here: ``network_sim`` imports the optional layers, the
  layers import this package's leaf modules (``repro.core.messages``),
  and importing a leaf runs this file first.
* :class:`~repro.core.peer.GuessPeer` /
  :class:`~repro.core.malicious.MaliciousPeer` — peer behaviours.
* The policy table (:mod:`repro.core.policies`) and caches
  (:mod:`repro.core.link_cache`, :mod:`repro.core.query_cache`).
* :func:`~repro.core.search.execute_query` — the serial-probe search loop.
"""

from repro.core.entry import CacheEntry
from repro.core.link_cache import LinkCache
from repro.core.malicious import (
    AttackDirectory,
    FaultyReporter,
    MaliciousPeer,
)
from repro.core.messages import Ping, Pong, Query, QueryReply, Refusal
from repro.core.params import (
    BadPongBehavior,
    ProtocolParams,
    SystemParams,
    default_cache_seed_size,
)
from repro.core.peer import GuessPeer
from repro.core.policies import (
    Policy,
    PolicySet,
    get_ordering_policy,
    get_replacement_policy,
    registered_policy_names,
)
from repro.core.query_cache import QueryCache
from repro.core.search import QueryResult, execute_query

__all__ = [
    "CacheEntry",
    "LinkCache",
    "AttackDirectory",
    "FaultyReporter",
    "MaliciousPeer",
    "Ping",
    "Pong",
    "Query",
    "QueryReply",
    "Refusal",
    "BadPongBehavior",
    "ProtocolParams",
    "SystemParams",
    "default_cache_seed_size",
    "GuessPeer",
    "Policy",
    "PolicySet",
    "get_ordering_policy",
    "get_replacement_policy",
    "registered_policy_names",
    "QueryCache",
    "QueryResult",
    "execute_query",
]
