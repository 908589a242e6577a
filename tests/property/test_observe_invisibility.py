"""Property: observation never perturbs the simulation.

For random small configurations, a run with a span recorder attached
produces the *bit-identical* trace digest — and an equal report — to a
run without any observers.  This is the dynamic, randomized counterpart
of the pinned-digest checks in
``tests/integration/test_determinism.py::TestObservationInvisibility``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.faults.plan import FaultPlan
from repro.observe.plan import ObservationPlan

seeds = st.integers(min_value=0, max_value=2**31 - 1)
cache_sizes = st.sampled_from([5, 10, 30])
retries = st.sampled_from([0, 2])
loss_rates = st.sampled_from([0.0, 0.1])
capacities = st.sampled_from([None, 7])


def _run(seed, cache_size, probe_retries, loss, observe):
    sim = GuessSimulation(
        SystemParams(network_size=40),
        ProtocolParams(cache_size=cache_size, probe_retries=probe_retries),
        seed=seed,
        faults=FaultPlan(loss_rate=loss) if loss else None,
        trace_hash=True,
        observe=observe,
    )
    sim.run(80.0)
    return sim.trace_digest, sim.report()


@given(
    seed=seeds,
    cache_size=cache_sizes,
    probe_retries=retries,
    loss=loss_rates,
    capacity=capacities,
)
@settings(max_examples=8, deadline=None)
def test_observation_is_invisible_to_trace_digests(
    seed, cache_size, probe_retries, loss, capacity
):
    plan = ObservationPlan(spans=True, span_capacity=capacity)
    plain_digest, plain_report = _run(
        seed, cache_size, probe_retries, loss, None
    )
    observed_digest, observed_report = _run(
        seed, cache_size, probe_retries, loss, plan
    )
    assert observed_digest == plain_digest
    assert observed_report == plain_report


@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_observers_actually_observe(seed):
    """Guard against a vacuous pass: the attached observers see traffic."""
    _, report = _run(seed, 10, 0, 0.0, None)
    sim = GuessSimulation(
        SystemParams(network_size=40),
        ProtocolParams(cache_size=10),
        seed=seed,
        observe=ObservationPlan(spans=True),
    )
    sim.run(80.0)
    spans = list(sim.span_recorder)
    assert sim.span_recorder.completed == len(spans) == report.queries
    assert sum(len(span.probes) for span in spans) == report.total_probes
    # A fault-free answer costs the one fixed round trip, a quarter of
    # the timeout; a timeout costs the whole timeout.
    timeout = sim.transport.timeout
    for span in spans:
        for probe in span.probes:
            assert probe.rtt == (timeout if probe.status == "timeout" else timeout / 4)
