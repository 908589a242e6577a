"""Validation and semantics of FreshnessPlan / CacheSizing."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import FreshnessError
from repro.freshness import CACHE_SIZING_POLICIES, CacheSizing, FreshnessPlan
from repro.freshness.mediator import FreshnessMediator
from repro.freshness.plan import ALPHA
from repro.sim.rng import RngRegistry

#: These tests pick contacts and draw capacities; nothing is ever sent,
#: so the relay/mediator gets no simulation to send it in.
NO_SIM = None


class TestCacheSizingValidation:
    def test_default_is_noop(self):
        assert CacheSizing().is_noop()

    @pytest.mark.parametrize("policy", CACHE_SIZING_POLICIES)
    def test_known_policies_accepted(self, policy):
        assert CacheSizing(policy=policy).policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(FreshnessError):
            CacheSizing(policy="lognormal")

    def test_negative_bounds_rejected(self):
        with pytest.raises(FreshnessError):
            CacheSizing(min_capacity=-1)
        with pytest.raises(FreshnessError):
            CacheSizing(max_capacity=-1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(FreshnessError):
            CacheSizing(min_capacity=5, max_capacity=3)

    def test_zero_max_capacity_means_unbounded(self):
        sizing = CacheSizing(min_capacity=5, max_capacity=0)
        assert sizing.max_capacity == 0


class TestCacheSizingCapacities:
    def test_uniform_returns_base(self):
        rng = random.Random(1)
        assert CacheSizing().capacity_for(30, 10_000, rng) == 30

    def test_proportional_scales_with_files(self):
        # REFERENCE_FILES = 100 files map to the base.
        sizing = CacheSizing(policy="proportional")
        rng = random.Random(1)
        assert sizing.capacity_for(30, 100, rng) == 30
        assert sizing.capacity_for(30, 200, rng) == 60
        assert sizing.capacity_for(30, 50, rng) == 15

    def test_proportional_is_draw_free(self):
        sizing = CacheSizing(policy="proportional")
        rng = random.Random(7)
        before = rng.getstate()
        sizing.capacity_for(30, 123, rng)
        assert rng.getstate() == before

    def test_proportional_floor(self):
        sizing = CacheSizing(policy="proportional", min_capacity=2)
        assert sizing.capacity_for(30, 0, random.Random(1)) == 2

    def test_zero_floor_allows_cacheless_peers(self):
        sizing = CacheSizing(policy="proportional", min_capacity=0)
        assert sizing.capacity_for(30, 0, random.Random(1)) == 0

    def test_ceiling_applied(self):
        sizing = CacheSizing(policy="proportional", max_capacity=40)
        assert sizing.capacity_for(30, 1000, random.Random(1)) == 40

    def test_power_law_mean_normalized_to_base(self):
        sizing = CacheSizing(policy="power-law", min_capacity=0)
        rng = random.Random(11)
        draws = [sizing.capacity_for(30, 10, rng) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        # Pareto(ALPHA) normalized to mean 1 -> population mean ~ base.
        assert 27.0 < mean < 33.0

    def test_power_law_draws_exactly_once(self):
        sizing = CacheSizing(policy="power-law")
        a, b = random.Random(5), random.Random(5)
        sizing.capacity_for(30, 10, a)
        b.paretovariate(ALPHA)
        assert a.getstate() == b.getstate()


class TestFreshnessPlanValidation:
    def test_default_is_noop(self):
        plan = FreshnessPlan()
        assert plan.is_noop()
        assert not plan.invalidates

    def test_budget_arms_invalidation(self):
        plan = FreshnessPlan(notify_budget=3)
        assert plan.invalidates
        assert not plan.is_noop()

    def test_zero_depth_disables_invalidation(self):
        plan = FreshnessPlan(notify_budget=3, depth=0)
        assert not plan.invalidates
        assert plan.is_noop()

    def test_sizing_alone_arms_the_plan(self):
        plan = FreshnessPlan(sizing=CacheSizing(policy="power-law"))
        assert not plan.invalidates
        assert not plan.is_noop()

    def test_negative_budget_rejected(self):
        with pytest.raises(FreshnessError):
            FreshnessPlan(notify_budget=-1)

    def test_negative_depth_rejected(self):
        with pytest.raises(FreshnessError):
            FreshnessPlan(depth=-1)

    def test_sizing_type_checked(self):
        with pytest.raises(FreshnessError):
            FreshnessPlan(sizing={"policy": "uniform"})  # type: ignore[arg-type]

    def test_with_revalidates(self):
        plan = FreshnessPlan(notify_budget=2)
        assert plan.with_(depth=3).depth == 3
        with pytest.raises(FreshnessError):
            plan.with_(notify_budget=-5)

    def test_plan_pickles(self):
        plan = FreshnessPlan(
            notify_budget=3, depth=2,
            sizing=CacheSizing(policy="power-law", max_capacity=30),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestMediatorGating:
    def test_from_plan_none(self):
        assert FreshnessMediator.from_plan(None, RngRegistry(1), NO_SIM) is None

    def test_from_plan_noop(self):
        mediator = FreshnessMediator.from_plan(FreshnessPlan(), RngRegistry(1), NO_SIM)
        assert mediator is None

    def test_from_plan_armed(self):
        mediator = FreshnessMediator.from_plan(
            FreshnessPlan(notify_budget=2), RngRegistry(1), NO_SIM
        )
        assert mediator is not None
        assert mediator.plan.notify_budget == 2

    def test_uniform_sizing_under_armed_plan_returns_base(self):
        mediator = FreshnessMediator.from_plan(
            FreshnessPlan(notify_budget=2), RngRegistry(1), NO_SIM
        )
        assert mediator.cache_capacity(30, 5000) == 30

    def test_pick_contacts_respects_budget_and_seen(self):
        mediator = FreshnessMediator.from_plan(
            FreshnessPlan(notify_budget=2), RngRegistry(1), NO_SIM
        )
        contacts = mediator.pick_contacts([1, 2, 3, 4], {2})
        assert len(contacts) == 2
        assert 2 not in contacts
        assert set(contacts) <= {1, 3, 4}

    def test_pick_contacts_under_budget_is_draw_free(self):
        registry = RngRegistry(1)
        mediator = FreshnessMediator.from_plan(
            FreshnessPlan(notify_budget=5), registry, NO_SIM
        )
        stream = registry.stream("freshness:notify")
        before = stream.getstate()
        assert mediator.pick_contacts([1, 2], set()) == [1, 2]
        assert stream.getstate() == before
