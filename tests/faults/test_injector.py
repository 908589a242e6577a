"""Tests for the runtime fault injector."""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.rng import RngRegistry


def make(plan: FaultPlan, seed: int = 42) -> FaultInjector:
    injector = FaultInjector.from_plan(plan, RngRegistry(seed))
    assert injector is not None
    return injector


class TestFromPlan:
    def test_none_plan_gives_none(self):
        assert FaultInjector.from_plan(None, RngRegistry(1)) is None

    def test_noop_plan_gives_none(self):
        assert FaultInjector.from_plan(FaultPlan(), RngRegistry(1)) is None

    def test_active_plan_gives_injector(self):
        injector = FaultInjector.from_plan(
            FaultPlan(loss_rate=0.5), RngRegistry(1)
        )
        assert isinstance(injector, FaultInjector)


class TestIndependentLoss:
    def test_certain_loss_drops_everything(self):
        injector = make(FaultPlan(loss_rate=1.0))
        assert all(injector.should_drop(1, 2, t) for t in range(20))

    def test_same_seed_replays_decisions(self):
        plan = FaultPlan(loss_rate=0.3)
        a, b = make(plan, seed=7), make(plan, seed=7)
        decisions_a = [a.should_drop(1, 2, float(t)) for t in range(200)]
        decisions_b = [b.should_drop(1, 2, float(t)) for t in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_diverge(self):
        plan = FaultPlan(loss_rate=0.5)
        a, b = make(plan, seed=7), make(plan, seed=8)
        assert [a.should_drop(1, 2, 0.0) for _ in range(64)] != [
            b.should_drop(1, 2, 0.0) for _ in range(64)
        ]
