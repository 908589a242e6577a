"""Tests for the resilience policy bundle and its normalize gate."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ScenarioError
from repro.resilience.policy import (
    BreakerSpec,
    BudgetSpec,
    ResiliencePolicy,
    SheddingSpec,
)


class TestSheddingSpec:
    def test_validates_fraction(self):
        with pytest.raises(ScenarioError):
            SheddingSpec(soft_fraction=0.0)
        with pytest.raises(ScenarioError):
            SheddingSpec(soft_fraction=1.5)

    def test_unit_fraction_is_disabled(self):
        assert not SheddingSpec(soft_fraction=1.0).enabled
        assert SheddingSpec(soft_fraction=0.5).enabled


class TestResiliencePolicy:
    def test_default_is_noop(self):
        assert ResiliencePolicy().is_noop()

    def test_disabled_shedding_stays_noop(self):
        assert ResiliencePolicy(
            shedding=SheddingSpec(soft_fraction=1.0)
        ).is_noop()

    def test_any_mechanism_breaks_noop(self):
        assert not ResiliencePolicy(breaker=BreakerSpec()).is_noop()
        assert not ResiliencePolicy(budget=BudgetSpec()).is_noop()
        assert not ResiliencePolicy(shedding=SheddingSpec()).is_noop()

    def test_all_on_arms_everything(self):
        policy = ResiliencePolicy.all_on()
        assert policy.breaker is not None
        assert policy.budget is not None
        assert policy.shedding is not None and policy.shedding.enabled

    def test_normalize_collapses_noop(self):
        assert ResiliencePolicy.normalize(None) is None
        assert ResiliencePolicy.normalize(ResiliencePolicy()) is None
        armed = ResiliencePolicy.all_on()
        assert ResiliencePolicy.normalize(armed) is armed

    def test_picklable(self):
        policy = ResiliencePolicy.all_on()
        assert pickle.loads(pickle.dumps(policy)) == policy
