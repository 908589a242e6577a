"""Property-based tests over whole simulation runs.

Hypothesis drives small random configurations through short runs and
checks the invariants that must hold for *any* configuration:

* the live population equals NetworkSize at all times;
* no link cache exceeds its capacity or contains its owner;
* probe accounting adds up (good + dead + refused == total);
* rates are probabilities; loads are non-negative.

Scale is kept tiny (<= 50 peers, <= 300 simulated seconds) so the whole
module stays in seconds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network_sim import GuessSimulation
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams

ordering_policies = st.sampled_from(["Random", "MRU", "LRU", "MFS", "MR", "MR*"])
replacement_policies = st.sampled_from(["Random", "LRU", "MRU", "LFS", "LR"])

system_strategy = st.builds(
    SystemParams,
    network_size=st.integers(min_value=10, max_value=50),
    num_desired_results=st.integers(min_value=1, max_value=2),
    lifespan_multiplier=st.sampled_from([0.05, 0.2, 1.0]),
    query_rate=st.sampled_from([0.0, 0.02, 0.1]),
    max_probes_per_second=st.sampled_from([None, 2, 100]),
    percent_bad_peers=st.sampled_from([0.0, 10.0, 30.0]),
    bad_pong_behavior=st.sampled_from(list(BadPongBehavior)),
)

protocol_strategy = st.builds(
    ProtocolParams,
    query_probe=ordering_policies,
    query_pong=ordering_policies,
    ping_probe=ordering_policies,
    ping_pong=ordering_policies,
    cache_replacement=replacement_policies,
    ping_interval=st.sampled_from([5.0, 30.0, 120.0]),
    cache_size=st.integers(min_value=2, max_value=30),
    do_backoff=st.booleans(),
    pong_size=st.integers(min_value=0, max_value=8),
    intro_prob=st.sampled_from([0.0, 0.1, 1.0]),
    parallel_probes=st.sampled_from([1, 3]),
)


@given(system_strategy, protocol_strategy, st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_simulation_invariants(system, protocol, seed):
    sim = GuessSimulation(system, protocol, seed=seed, warmup=0.0)
    sim.run(300.0)

    # Population invariant.
    assert len(sim.live_peers) == system.network_size

    # Cache invariants.
    for peer in sim.live_peers:
        assert len(peer.link_cache) <= protocol.cache_size
        assert peer.address not in peer.link_cache
        addresses = list(peer.link_cache.addresses())
        assert len(addresses) == len(set(addresses))

    report = sim.report()
    # Probe accounting.
    assert (
        report.good_probes + report.dead_probes + report.refused_probes
        == report.total_probes
    )
    assert report.satisfied_queries <= report.queries
    assert 0.0 <= report.unsatisfied_rate <= 1.0
    assert 0 <= report.dead_probes <= report.total_probes
    # Loads cover everyone who ever lived, with non-negative counts.
    assert all(load >= 0 for load in report.loads.values())
    assert len(report.loads) == system.network_size + report.births
    # Churn bookkeeping.
    assert report.births == report.deaths


@given(
    st.integers(min_value=10, max_value=40),
    st.integers(min_value=2, max_value=20),
    st.integers(0, 2**31),
)
@settings(max_examples=15, deadline=None)
def test_overlay_snapshot_consistency(network_size, cache_size, seed):
    """Snapshot edges only mention live peers; LCC <= population."""
    sim = GuessSimulation(
        SystemParams(network_size=network_size, query_rate=0.05,
                     lifespan_multiplier=0.2),
        ProtocolParams(cache_size=cache_size),
        seed=seed,
    )
    sim.run(200.0)
    snapshot = sim.snapshot_overlay()
    assert snapshot.live == {p.address for p in sim.live_peers}
    for owner, targets in snapshot.edges.items():
        assert owner in snapshot.live
        assert set(targets) <= snapshot.live
    assert 0 < snapshot.largest_component_size() <= network_size
