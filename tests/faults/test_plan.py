"""Tests for the declarative fault plans."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan


class TestValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ConfigError):
            FaultPlan(loss_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(loss_rate=1.5)


class TestNoop:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop()

    @pytest.mark.parametrize("plan", [FaultPlan(loss_rate=0.01)], ids=["loss"])
    def test_any_active_source_defeats_noop(self, plan):
        assert not plan.is_noop()


class TestPlumbing:

    def test_plans_hash_and_pickle(self):
        plan = FaultPlan(loss_rate=0.05)
        assert hash(plan) == hash(plan)
        assert pickle.loads(pickle.dumps(plan)) == plan
