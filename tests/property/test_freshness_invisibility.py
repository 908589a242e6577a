"""Property: all-noop freshness plans are invisible.

For random small configurations, a run with an all-noop
:class:`FreshnessPlan` (arbitrary uniform-sizing bounds, with
invalidation disarmed by a zero budget or zero depth) produces the
*bit-identical* trace digest — and an equal report — to a run with no
plan at all.  This is the dynamic, randomized counterpart of the
pinned-digest checks in
``tests/integration/test_determinism.py::TestFreshnessPins``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.freshness import CacheSizing, FreshnessPlan
from repro.resilience import ChurnStorm, ScenarioPlan

seeds = st.integers(min_value=0, max_value=2**31 - 1)
cache_sizes = st.sampled_from([5, 10, 30])
counts = st.integers(min_value=0, max_value=8)


@st.composite
def noop_plans(draw):
    """Plans whose every knob is set but which arm nothing.

    Invalidation needs budget > 0 AND depth > 0, so zero out at least
    one of them; sizing stays on the uniform policy, whose bounds must
    both be dormant.
    """
    budget = draw(counts)
    depth = draw(counts)
    if budget > 0 and depth > 0:
        if draw(st.booleans()):
            budget = 0
        else:
            depth = 0
    sizing = CacheSizing(
        policy="uniform",
        min_capacity=draw(st.integers(min_value=0, max_value=3)),
        max_capacity=0,
    )
    return FreshnessPlan(
        notify_budget=budget,
        depth=depth,
        sizing=sizing,
    )


def _run(seed, cache_size, freshness, scenarios=None):
    sim = GuessSimulation(
        SystemParams(network_size=40),
        ProtocolParams(cache_size=cache_size),
        seed=seed,
        trace_hash=True,
        freshness=freshness,
        scenarios=scenarios,
    )
    sim.run(80.0)
    return sim.trace_digest, sim.report()


@given(seed=seeds, cache_size=cache_sizes, plan=noop_plans())
@settings(max_examples=8, deadline=None)
def test_noop_freshness_plans_are_invisible(seed, cache_size, plan):
    assert plan.is_noop()
    plain_digest, plain_report = _run(seed, cache_size, None)
    gated_digest, gated_report = _run(seed, cache_size, plan)
    assert gated_digest == plain_digest
    assert gated_report == plain_report


@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_armed_plan_actually_notifies(seed):
    """Guard against a vacuous pass: an armed plan must send notices
    once peers start departing.  Natural lifetimes can outlast this
    short run, so a churn storm forces departures for every seed."""
    plan = FreshnessPlan(notify_budget=4, depth=2)
    storm = ScenarioPlan(
        storms=(ChurnStorm(start=20.0, width=10.0, fraction=0.5),)
    )
    _, plain = _run(seed, 10, None, storm)
    _, armed = _run(seed, 10, plan, storm)
    assert armed.freshness_notices > 0
    assert plain.freshness_notices == 0
