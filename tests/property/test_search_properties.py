"""Property-based tests for the query-execution loop.

A static mini-network is built from hypothesis-chosen shapes (library
owners, dead peers, pong topology implicit via caches), and the core
accounting invariants are checked for every generated case:

* every address is probed at most once;
* probes == good + dead + refused;
* satisfied  ⟺  results >= desired;
* probe count never exceeds the number of distinct addresses knowable.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import CacheEntry
from repro.core.params import ProtocolParams
from repro.core.search import execute_query
from repro.network.transport import Transport
from tests.core.helpers import make_peer


class CountingTransport(Transport):
    """Transport that records which addresses got probed."""

    def __init__(self):
        super().__init__()
        self.probed: list[int] = []

    def probe(self, src, dst, message, time):
        self.probed.append(dst)
        return super().probe(src, dst, message, time)


@st.composite
def network_shapes(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    owners = draw(st.sets(st.integers(1, n), max_size=n))
    dead = draw(st.sets(st.integers(1, n), max_size=n))
    cached = draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n)
    )
    pong_size = draw(st.integers(0, 5))
    desired = draw(st.integers(1, 3))
    walkers = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(0, 2**31))
    return n, owners, dead, cached, pong_size, desired, walkers, seed


@given(network_shapes())
@settings(max_examples=120, deadline=None)
def test_search_accounting_invariants(shape):
    n, owners, dead, cached, pong_size, desired, walkers, seed = shape
    protocol = ProtocolParams(
        cache_size=max(1, n),
        pong_size=pong_size,
        parallel_probes=walkers,
    )
    rng = random.Random(seed)
    transport = CountingTransport()
    querier = make_peer(0, protocol=protocol, library=frozenset())
    transport.register(0, querier)

    peers = {}
    for i in range(1, n + 1):
        library = frozenset({42}) if i in owners else frozenset()
        peer = make_peer(i, protocol=protocol, library=library, seed=i)
        peers[i] = peer
        if i not in dead:
            transport.register(i, peer)
        # Give every peer a small random cache so pongs chain.
        for j in rng.sample(range(1, n + 1), min(3, n)):
            if j != i:
                peer.link_cache.insert(
                    CacheEntry(address=j),
                    peer.policies.replacement, peer._policy_rng,
                )

    for address in cached:
        querier.link_cache.insert(
            CacheEntry(address=address),
            querier.policies.replacement, querier._policy_rng,
        )

    result = execute_query(
        querier, 42, transport, 0.0, rng=rng, desired_results=desired
    )

    # Each address probed at most once.
    assert len(transport.probed) == len(set(transport.probed))
    # The querier never probes itself.
    assert 0 not in transport.probed
    # Accounting adds up.
    assert result.probes == len(transport.probed)
    assert (
        result.good_probes + result.dead_probes + result.refused_probes
        == result.probes
    )
    # Satisfaction definition.
    assert result.satisfied == (result.results >= desired)
    # Cannot probe more than the knowable universe.
    assert result.probes <= n
    # Results can only come from owners.
    assert result.results <= len(owners)
    # Dead probes only to dead (unregistered) addresses.
    assert all(address in dead for address in transport.probed
               if address not in transport._directory)
