"""Shared construction helpers for core-protocol tests."""

from __future__ import annotations

import random

from repro.core.entry import CacheEntry
from repro.core.malicious import AttackDirectory, MaliciousPeer
from repro.core.params import BadPongBehavior, ProtocolParams
from repro.core.peer import GuessPeer
from repro.core.peer_store import PeerStore
from repro.core.policies import PolicySet
from repro.resilience.policy import ResiliencePolicy


def make_peer(
    address: int,
    *,
    protocol: ProtocolParams | None = None,
    num_files: int = 10,
    library: frozenset[int] = frozenset({1, 2, 3}),
    birth_time: float = 0.0,
    death_time: float = 1e9,
    max_probes_per_second: int | None = None,
    seed: int = 0,
    resilience: ResiliencePolicy | None = None,
    cache_capacity: int | None = None,
) -> GuessPeer:
    """A standalone good peer with self-contained RNGs."""
    protocol = (protocol or ProtocolParams(cache_size=10)).normalized()
    return GuessPeer(
        address,
        num_files=num_files,
        library=library,
        birth_time=birth_time,
        death_time=death_time,
        protocol=protocol,
        policies=PolicySet.from_protocol(protocol),
        max_probes_per_second=max_probes_per_second,
        policy_rng=random.Random(seed),
        intro_rng=random.Random(seed + 1),
        resilience=resilience,
        cache_capacity=cache_capacity,
    )


def keep(peer: GuessPeer, entry: CacheEntry) -> bool:
    """Offer ``entry`` (the caller's own) to ``peer``'s link cache."""
    return peer.link_cache.insert(
        entry, peer.policies.replacement, peer._policy_rng
    )


def make_malicious_peer(
    address: int,
    *,
    behavior: BadPongBehavior = BadPongBehavior.DEAD,
    directory: AttackDirectory | None = None,
    protocol: ProtocolParams | None = None,
    seed: int = 0,
) -> MaliciousPeer:
    """A standalone malicious peer."""
    protocol = (protocol or ProtocolParams(cache_size=10)).normalized()
    return MaliciousPeer(
        address,
        behavior=behavior,
        directory=directory
        or AttackDirectory(PeerStore(), ghost_addresses=[9001, 9002]),
        attack_rng=random.Random(seed + 2),
        num_files=0,
        library=frozenset(),
        birth_time=0.0,
        death_time=1e9,
        protocol=protocol,
        policies=PolicySet.from_protocol(protocol),
        max_probes_per_second=None,
        policy_rng=random.Random(seed),
        intro_rng=random.Random(seed + 1),
    )
