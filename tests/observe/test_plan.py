"""Tests for ObservationPlan validation and the no-op contract."""

from __future__ import annotations

import pickle

import pytest

from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import ConfigError
from repro.observe.plan import ObservationPlan


def recorder_for(plan):
    """The span recorder a tiny simulation builds for ``plan``."""
    sim = GuessSimulation(
        SystemParams(network_size=20), ProtocolParams(cache_size=5), observe=plan
    )
    return sim.span_recorder


class TestObservationPlan:
    def test_defaults_are_noop(self):
        assert recorder_for(None) is None
        assert recorder_for(ObservationPlan()) is None
        assert recorder_for(ObservationPlan(span_capacity=8)) is None

    def test_any_observer_clears_noop(self):
        recorder = recorder_for(ObservationPlan(spans=True, span_capacity=8))
        assert recorder is not None
        assert recorder.capacity == 8

    def test_bad_span_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ObservationPlan(spans=True, span_capacity=0)

    def test_plan_is_picklable(self):
        # Frozen + scalar fields: safe to ship across process boundaries.
        plan = ObservationPlan(spans=True, span_capacity=5)
        assert pickle.loads(pickle.dumps(plan)) == plan
