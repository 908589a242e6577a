"""Property tests for the fault subsystem's determinism contract.

* **No-op invisibility** — a zero :class:`FaultPlan` builds no injector,
  draws nothing, and reproduces the fault-free trace digest bit-for-bit
  (the golden-digest pins in ``tests/integration`` rely on this; here it
  is checked across arbitrary seeds);
* **Replay** — a lossy plan replays its run exactly under the same seed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.faults.plan import FaultPlan

seeds = st.integers(min_value=0, max_value=2**63 - 1)
rates = st.floats(
    min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
)


@given(seed=seeds)
@settings(max_examples=8, deadline=None)
def test_all_zero_fault_plan_is_invisible_to_trace_digests(seed):
    """faults=None and faults=FaultPlan() are the same simulation."""

    def digest(faults):
        sim = GuessSimulation(
            SystemParams(network_size=40),
            ProtocolParams(cache_size=10),
            seed=seed,
            faults=faults,
            trace_hash=True,
        )
        sim.run(80.0)
        return sim.trace_digest, sim.report().probes_per_query

    assert digest(None) == digest(FaultPlan())


@given(seed=seeds, loss=rates)
@settings(max_examples=6, deadline=None)
def test_nonzero_plans_are_deterministic_and_visible(seed, loss):
    def digest(faults):
        sim = GuessSimulation(
            SystemParams(network_size=40),
            ProtocolParams(cache_size=10),
            seed=seed,
            faults=faults,
            trace_hash=True,
        )
        sim.run(80.0)
        return sim.trace_digest

    plan = FaultPlan(loss_rate=loss)
    assert digest(plan) == digest(plan)  # same plan replays exactly
