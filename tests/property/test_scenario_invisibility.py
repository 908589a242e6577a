"""Property: all-noop scenario plans are invisible.

For random small configurations, a run with an all-noop
:class:`ScenarioPlan` (disabled storms and crowds at arbitrary window
positions) produces the *bit-identical* trace digest — and an equal
report — to a run with no scenarios at all.  This is the dynamic, randomized counterpart of the
pinned-digest checks in
``tests/integration/test_determinism.py::TestScenarioInvisibility``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.resilience import ChurnStorm, FlashCrowd, ScenarioPlan

seeds = st.integers(min_value=0, max_value=2**31 - 1)
cache_sizes = st.sampled_from([5, 10, 30])
retries = st.sampled_from([0, 2])
starts = st.floats(min_value=0.0, max_value=200.0)
widths = st.floats(min_value=1.0, max_value=60.0)


@st.composite
def noop_plans(draw):
    """Plans whose every component is present but disabled."""
    storms = tuple(
        ChurnStorm(start=draw(starts), width=draw(widths), fraction=0.0)
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    crowds = tuple(
        FlashCrowd(start=start, end=start + draw(widths), multiplier=1.0)
        for start in (
            draw(starts)
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        )
    )
    return ScenarioPlan(storms=storms, crowds=crowds)


def _run(seed, cache_size, probe_retries, scenarios, resilience):
    sim = GuessSimulation(
        SystemParams(network_size=40),
        ProtocolParams(cache_size=cache_size, probe_retries=probe_retries),
        seed=seed,
        trace_hash=True,
        scenarios=scenarios,
        resilience=resilience,
    )
    sim.run(80.0)
    return sim.trace_digest, sim.report()


@given(
    seed=seeds,
    cache_size=cache_sizes,
    probe_retries=retries,
    plan=noop_plans(),
)
@settings(max_examples=8, deadline=None)
def test_noop_scenarios_are_invisible_to_trace_digests(
    seed, cache_size, probe_retries, plan
):
    assert plan.is_noop()
    plain_digest, plain_report = _run(
        seed, cache_size, probe_retries, None, None
    )
    gated_digest, gated_report = _run(
        seed, cache_size, probe_retries, plan, None
    )
    assert gated_digest == plain_digest
    assert gated_report == plain_report


@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_enabled_storms_actually_kill(seed):
    """Guard against a vacuous pass: an armed storm forces departures."""
    plan = ScenarioPlan(
        storms=(ChurnStorm(start=20.0, width=10.0, fraction=0.5),)
    )
    _, plain = _run(seed, 10, 0, None, None)
    _, stormy = _run(seed, 10, 0, plan, None)
    assert stormy.deaths > plain.deaths
