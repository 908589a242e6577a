"""System and protocol parameters (paper Tables 1 and 2).

Two frozen dataclasses mirror the paper's configuration split:

* :class:`SystemParams` — the environment the protocol runs in (Table 1):
  network size, query behaviour, peer capacities, attacker mix.
* :class:`ProtocolParams` — how GUESS itself is configured (Table 2):
  the five policy types, cache size, ping interval, pong size, the
  introduction probability, and the behavioural flags.

Both validate eagerly so a bad sweep fails before simulation time is
spent, and both are hashable so experiment runners can key caches on them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Tuple

from repro.core.policies import ORDERINGS, REPLACEMENTS
from repro.errors import ConfigError

#: Policy names accepted for ordering roles (QueryProbe, QueryPong,
#: PingProbe, PingPong) and for the CacheReplacement role, named after
#: what it evicts.  ``MR*`` / ``LR*`` are MR / LR restricted to first-hand
#: experience (see ``ProtocolParams.reset_num_results``).
ORDERING_POLICY_NAMES: Tuple[str, ...] = tuple(ORDERINGS)
REPLACEMENT_POLICY_NAMES: Tuple[str, ...] = tuple(REPLACEMENTS)


def _require_count(params: object, name: str, floor: int) -> None:
    """``params.name`` must be an ``int`` (a ``bool`` is not) ``>= floor``:
    a count of 2.5 would fail mid-run, or run as some other count."""
    value = getattr(params, name)
    if type(value) is bool or not isinstance(value, int) or value < floor:
        raise ConfigError(f"{name} must be an int >= {floor}, got {value!r}")


class BadPongBehavior(enum.Enum):
    """What a malicious peer puts in its Pong messages (Table 1).

    ``DEAD``: addresses of departed peers (non-colluding poisoning).
    ``BAD``: addresses of other malicious peers (colluding poisoning).
    ``GOOD``: addresses of good peers (camouflage; a control case).
    """

    DEAD = "Dead"
    BAD = "Bad"
    GOOD = "Good"


@dataclass(frozen=True)
class SystemParams:
    """Table 1: parameters describing the system the protocol runs on.

    Attributes:
        network_size: number of live peers (held constant by rebirth).
        num_desired_results: results needed to satisfy a query.
        lifespan_multiplier: scales every drawn peer lifetime.
        query_rate: expected queries per user per second.
        max_probes_per_second: per-peer capacity limit; ``None`` disables
            refusals entirely.
        percent_bad_peers: percentage (0-100) of peers that are malicious.
        bad_pong_behavior: what malicious peers return in pongs.
        percent_faulty_reporters: percentage (0-100) of peers that are
            faulty reporters — peers with real libraries that misreport
            query result counts (à la Consenzus; see
            :class:`~repro.core.malicious.FaultyReporter`).  Disjoint
            from the malicious population.
        faulty_reporter_mode: ``"inflate"`` (claim
            ``true + faulty_report_offset`` results) or ``"suppress"``
            (claim zero and refuse to relay gossip rumors).
        faulty_report_offset: results added per reply by inflating
            reporters.
    """

    network_size: int = 1000
    num_desired_results: int = 1
    lifespan_multiplier: float = 1.0
    query_rate: float = 9.26e-3
    max_probes_per_second: int | None = 100
    percent_bad_peers: float = 0.0
    bad_pong_behavior: BadPongBehavior = BadPongBehavior.DEAD
    percent_faulty_reporters: float = 0.0
    faulty_reporter_mode: str = "inflate"
    faulty_report_offset: int = 3

    def __post_init__(self) -> None:
        _require_count(self, "network_size", 2)
        _require_count(self, "num_desired_results", 1)
        if self.max_probes_per_second is not None:  # None: no capacity limit
            _require_count(self, "max_probes_per_second", 1)
        # Written so that NaN fails; an infinite one means no peer dies.
        if not 0 < self.lifespan_multiplier < math.inf:
            raise ConfigError(
                "lifespan_multiplier must be finite and > 0, "
                f"got {self.lifespan_multiplier}"
            )
        # An infinite rate would repeat bursts forever at one instant.
        if not 0 <= self.query_rate < math.inf:
            raise ConfigError(
                f"query_rate must be >= 0 and finite, got {self.query_rate}"
            )
        if not 0.0 <= self.percent_bad_peers <= 100.0:
            raise ConfigError(
                f"percent_bad_peers must be in [0, 100], got {self.percent_bad_peers}"
            )
        if not isinstance(self.bad_pong_behavior, BadPongBehavior):
            raise ConfigError(
                f"bad_pong_behavior must be a BadPongBehavior, "
                f"got {self.bad_pong_behavior!r}"
            )
        if not 0.0 <= self.percent_faulty_reporters <= 100.0:
            raise ConfigError(
                "percent_faulty_reporters must be in [0, 100], "
                f"got {self.percent_faulty_reporters}"
            )
        if self.percent_bad_peers + self.percent_faulty_reporters > 100.0:
            raise ConfigError(
                "percent_bad_peers + percent_faulty_reporters must not "
                f"exceed 100, got {self.percent_bad_peers} + "
                f"{self.percent_faulty_reporters}"
            )
        if self.faulty_reporter_mode not in ("inflate", "suppress"):
            raise ConfigError(
                "faulty_reporter_mode must be 'inflate' or 'suppress', "
                f"got {self.faulty_reporter_mode!r}"
            )
        if self.faulty_report_offset < 1:
            raise ConfigError(
                "faulty_report_offset must be >= 1, "
                f"got {self.faulty_report_offset}"
            )

    @property
    def bad_peer_fraction(self) -> float:
        """percent_bad_peers as a probability."""
        return self.percent_bad_peers / 100.0

    @property
    def faulty_reporter_fraction(self) -> float:
        """percent_faulty_reporters as a probability."""
        return self.percent_faulty_reporters / 100.0


@dataclass(frozen=True)
class ProtocolParams:
    """Table 2: parameters configuring the GUESS protocol itself.

    Attributes:
        query_probe: policy ordering query probes.
        query_pong: policy selecting entries for pongs answering queries.
        ping_probe: policy ordering maintenance pings.
        ping_pong: policy selecting entries for pongs answering pings.
        cache_replacement: eviction policy (named for what it evicts).
        ping_interval: seconds between maintenance pings per peer.
        cache_size: link-cache capacity.
        reset_num_results: if True, ``NumRes`` learned from other peers is
            reset to 0 on insertion — combined with MR ordering this *is*
            the paper's MR\\* policy.  Selecting ``MR*`` (or ``LR*``) for
            any role forces this flag on via :meth:`normalized`.
        do_backoff: if True, a refused probe leaves the entry cached and
            the prober backs off; if False the prober treats the refusal
            like a death and evicts (the paper's inherent throttling).
        pong_size: IP addresses per pong.
        intro_prob: probability a probed peer caches the prober.
        probe_spacing: seconds between successive probes of one query
            (the GUESS spec's serial-probe timeout, 0.2 s).
        parallel_probes: number of probes in flight at once (k-walkers);
            1 is the strictly serial protocol from the spec.
        probe_retries: extra sends allowed after a probe times out
            (0 = the paper's one-shot probes).  Retries apply to both
            query probes and maintenance pings; over a lossy network
            they distinguish "lost packet" from "dead peer" at the cost
            of extra probes and waiting.  A retry waits one
            ``probe_spacing`` after the timeout, so retried probes stay
            on the serial grid.
    """

    query_probe: str = "Random"
    query_pong: str = "Random"
    ping_probe: str = "Random"
    ping_pong: str = "Random"
    cache_replacement: str = "Random"
    ping_interval: float = 30.0
    cache_size: int = 100
    reset_num_results: bool = False
    do_backoff: bool = False
    pong_size: int = 5
    intro_prob: float = 0.1
    probe_spacing: float = 0.2
    parallel_probes: int = 1
    probe_retries: int = 0

    def __post_init__(self) -> None:
        for role, name in (
            ("query_probe", self.query_probe),
            ("query_pong", self.query_pong),
            ("ping_probe", self.ping_probe),
            ("ping_pong", self.ping_pong),
        ):
            if name not in ORDERING_POLICY_NAMES:
                raise ConfigError(
                    f"{role} must be one of {ORDERING_POLICY_NAMES}, got {name!r}"
                )
        if self.cache_replacement not in REPLACEMENT_POLICY_NAMES:
            raise ConfigError(
                f"cache_replacement must be one of {REPLACEMENT_POLICY_NAMES}, "
                f"got {self.cache_replacement!r}"
            )
        # Written so that NaN fails; an infinite one means no peer pings.
        if not 0 < self.ping_interval < math.inf:
            raise ConfigError(
                f"ping_interval must be finite and > 0, got {self.ping_interval}"
            )
        _require_count(self, "cache_size", 1)
        _require_count(self, "pong_size", 0)
        if not 0.0 <= self.intro_prob <= 1.0:
            raise ConfigError(
                f"intro_prob must be in [0, 1], got {self.intro_prob}"
            )
        # Written so that NaN fails: a probe time is a finite number.
        if not 0 < self.probe_spacing < math.inf:
            raise ConfigError(
                f"probe_spacing must be finite and > 0, got {self.probe_spacing}"
            )
        _require_count(self, "parallel_probes", 1)
        _require_count(self, "probe_retries", 0)

    def uses_starred_policy(self) -> bool:
        """True if any role selects the trust-local MR*/LR* variant."""
        return any(
            name.endswith("*")
            for name in (
                self.query_probe,
                self.query_pong,
                self.ping_probe,
                self.ping_pong,
                self.cache_replacement,
            )
        )

    def normalized(self) -> "ProtocolParams":
        """Resolve ``MR*``/``LR*`` into ``MR``/``LR`` + reset flag.

        The starred policies differ from their base policies only in how
        ``NumRes`` is ingested, which is an insertion-time behaviour
        (``reset_num_results``), not an ordering-time one.  Normalising
        keeps the policy implementations to the five base orderings.
        """
        if not self.uses_starred_policy():
            return self
        def unstar(name: str) -> str:
            return name.rstrip("*")
        return replace(
            self,
            query_probe=unstar(self.query_probe),
            query_pong=unstar(self.query_pong),
            ping_probe=unstar(self.ping_probe),
            ping_pong=unstar(self.ping_pong),
            cache_replacement=unstar(self.cache_replacement),
            reset_num_results=True,
        )

    @classmethod
    def all_same_policy(cls, policy: str, **overrides) -> "ProtocolParams":
        """Params using ``policy`` for the three query-side roles (§6.4).

        The paper's policy-stack experiments "only vary QueryProbe,
        QueryPong and CacheReplacement ... all three types implement the
        same policy"; PingProbe and PingPong stay Random throughout the
        paper.  The replacement role gets the evict-counterpart name
        (MFS → LFS, MR → LR, MRU ↔ LRU) so that the *retain goal* matches
        the ordering goal, exactly as the paper pairs them.
        """
        # Both name lists run in the policy table's order, starred pair last.
        replacement_for = dict(zip(ORDERING_POLICY_NAMES, REPLACEMENT_POLICY_NAMES))
        if policy not in replacement_for:
            raise ConfigError(
                f"policy must be one of {sorted(replacement_for)}, got {policy!r}"
            )
        return cls(
            query_probe=policy,
            query_pong=policy,
            cache_replacement=replacement_for[policy],
            **overrides,
        )


def default_cache_seed_size(network_size: int) -> int:
    """Initial live entries per cache: ``NetworkSize / 100``, at least 2.

    The paper found results insensitive to the seed size as long as it is
    small (~NetworkSize/100); 2 is the floor that keeps the tiniest test
    networks connected at t=0.
    """
    if network_size < 2:
        raise ConfigError(f"network_size must be >= 2, got {network_size}")
    return max(2, network_size // 100)
