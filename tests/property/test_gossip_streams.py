"""Property tests for the gossip subsystem's determinism contract.

The gossip mechanisms — the standalone rumor baseline and the
gossip-assisted GUESS relay — draw exclusively from ``gossip:*``
substreams (statically enforced by an RD007 contract).  These tests are
the dynamic side of that proof:

* **Stream independence** — arming gossip and actually drawing from it
  never perturbs the ``fault:*`` or ``scenario:*`` decision sequences;
* **No-op invisibility** — a disabled :class:`GossipPlan` (``fanout=0``
  or ``ttl=0``) builds no relay, draws nothing, and reproduces the
  gossip-free trace digest bit-for-bit across arbitrary seeds (the
  golden-digest pins in ``tests/integration`` check three fixed seeds;
  here hypothesis picks them).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.extent import PopulationView
from repro.baselines.gnutella import GnutellaOverlay
from repro.baselines.gossip import (
    GossipParams,
    GossipPlan,
    GossipRelay,
    GossipSearch,
)
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.resilience.scenarios import ChurnStorm, ScenarioDriver, ScenarioPlan
from repro.sim.rng import RngRegistry

seeds = st.integers(min_value=0, max_value=2**63 - 1)
rates = st.floats(
    min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
)
interleaves = st.lists(st.booleans(), min_size=1, max_size=40)

#: Deterministic candidate pool for relay draws — more addresses than
#: any fanout below, so pick_targets always actually samples.
CANDIDATES = tuple(range(100, 140))

#: The relay only picks targets here; nothing is sent, so it gets no
#: simulation to send it in.
NO_SIM = None


@given(seed=seeds, loss=rates, fanout=st.integers(1, 5),
       interleave=interleaves)
@settings(max_examples=60)
def test_relay_draws_never_perturb_the_loss_stream(
    seed, loss, fanout, interleave
):
    """Arming the gossip relay — and actually sampling targets — leaves
    every fault-layer loss decision unchanged."""
    alone = FaultInjector(FaultPlan(loss_rate=loss), RngRegistry(seed))
    registry = RngRegistry(seed)
    with_gossip = FaultInjector(FaultPlan(loss_rate=loss), registry)
    relay = GossipRelay.from_plan(
        GossipPlan(fanout=fanout, ttl=2), registry, NO_SIM
    )
    assert relay is not None
    expected, observed = [], []
    for flag in interleave:
        if flag:
            expected.append(alone.should_drop(1, 2, 0.0))
            observed.append(with_gossip.should_drop(1, 2, 0.0))
        else:
            relay.pick_targets(CANDIDATES, {101, 105})
    assert observed == expected


@given(seed=seeds, fraction=rates, fanout=st.integers(1, 5),
       interleave=interleaves)
@settings(max_examples=60)
def test_relay_draws_never_perturb_the_scenario_stream(
    seed, fraction, fanout, interleave
):
    """Relay sampling never shifts a churn storm's victim roster."""
    plan = ScenarioPlan(
        storms=(ChurnStorm(start=10.0, width=5.0, fraction=fraction),)
    )
    alone = ScenarioDriver.from_plan(plan, RngRegistry(seed))
    registry = RngRegistry(seed)
    with_gossip = ScenarioDriver.from_plan(plan, registry)
    relay = GossipRelay.from_plan(
        GossipPlan(fanout=fanout, ttl=1), registry, NO_SIM
    )
    storm = plan.storms[0]
    expected, observed = [], []
    for flag in interleave:
        if flag:
            expected.append(alone.draw_departures(storm, 50))
            observed.append(with_gossip.draw_departures(storm, 50))
        else:
            relay.pick_targets(CANDIDATES, set())
    assert observed == expected


@given(seed=seeds, loss=rates,
       mode=st.sampled_from(("push", "pull", "push-pull")))
@settings(max_examples=25, deadline=None)
def test_gossip_search_never_perturbs_the_fault_streams(seed, loss, mode):
    """A full rumor workload on a shared registry leaves the fault
    injector's verdict sequence untouched."""
    alone = FaultInjector(FaultPlan(loss_rate=loss), RngRegistry(seed))
    registry = RngRegistry(seed)
    shared = FaultInjector(FaultPlan(loss_rate=loss), registry)
    overlay = GnutellaOverlay(30, degree=4, rng=random.Random(5))
    view = PopulationView.synthesize(30, random.Random(6))
    search = GossipSearch(
        overlay, view, GossipParams(mode=mode, fanout=2, rounds=3), registry
    )
    search.run_workload(5)
    verdicts_alone = [alone.should_drop(1, 2, float(t)) for t in range(30)]
    verdicts_shared = [shared.should_drop(1, 2, float(t)) for t in range(30)]
    assert verdicts_shared == verdicts_alone


@given(seed=seeds)
@settings(max_examples=8, deadline=None)
def test_disabled_plan_is_invisible_to_trace_digests(seed):
    """gossip=None, fanout=0, and ttl=0 are the same simulation."""

    def digest(gossip):
        sim = GuessSimulation(
            SystemParams(network_size=40),
            ProtocolParams(cache_size=10),
            seed=seed,
            gossip=gossip,
            trace_hash=True,
        )
        sim.run(80.0)
        return sim.trace_digest, sim.report().probes_per_query

    baseline = digest(None)
    assert digest(GossipPlan(fanout=0)) == baseline
    assert digest(GossipPlan(fanout=3, ttl=0)) == baseline


@given(seed=seeds, fanout=st.integers(1, 3))
@settings(max_examples=6, deadline=None)
def test_armed_plans_are_deterministic_and_visible(seed, fanout):
    """Same armed plan replays exactly; dissemination really happens."""

    def run(gossip):
        sim = GuessSimulation(
            SystemParams(network_size=40),
            ProtocolParams(cache_size=10),
            seed=seed,
            gossip=gossip,
            trace_hash=True,
        )
        sim.run(80.0)
        return sim.trace_digest, sim.report()

    plan = GossipPlan(fanout=fanout, ttl=2)
    digest_a, report_a = run(plan)
    digest_b, report_b = run(plan)
    assert digest_a == digest_b
    assert report_a == report_b
    assert report_a.gossip_rumors > 0
    # Gossip hops are scheduled events, so the armed digest must move.
    clean_digest, _ = run(None)
    assert digest_a != clean_digest
