"""Tests for scenario plans and the scenario driver."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ScenarioError
from repro.resilience.scenarios import (
    ChurnStorm,
    FlashCrowd,
    ScenarioDriver,
    ScenarioPlan,
)
from repro.sim.rng import RngRegistry


class TestChurnStorm:
    def test_validates_start(self):
        with pytest.raises(ScenarioError):
            ChurnStorm(start=-1.0, width=10.0, fraction=0.5)

    def test_validates_width(self):
        with pytest.raises(ScenarioError):
            ChurnStorm(start=0.0, width=0.0, fraction=0.5)

    def test_validates_fraction(self):
        with pytest.raises(ScenarioError):
            ChurnStorm(start=0.0, width=10.0, fraction=1.5)
        with pytest.raises(ScenarioError):
            ChurnStorm(start=0.0, width=10.0, fraction=-0.1)

    def test_zero_fraction_is_disabled(self):
        assert not ChurnStorm(start=0.0, width=10.0, fraction=0.0).enabled
        assert ChurnStorm(start=0.0, width=10.0, fraction=0.3).enabled


class TestFlashCrowd:
    def test_validates_window(self):
        with pytest.raises(ScenarioError):
            FlashCrowd(start=10.0, end=10.0, multiplier=2.0)
        with pytest.raises(ScenarioError):
            FlashCrowd(start=-1.0, end=10.0, multiplier=2.0)

    def test_validates_multiplier(self):
        with pytest.raises(ScenarioError):
            FlashCrowd(start=0.0, end=10.0, multiplier=0.0)

    def test_unit_multiplier_is_disabled(self):
        assert not FlashCrowd(start=0.0, end=10.0, multiplier=1.0).enabled
        assert FlashCrowd(start=0.0, end=10.0, multiplier=0.5).enabled


class TestScenarioPlan:
    def test_default_is_noop(self):
        assert ScenarioPlan().is_noop()

    def test_disabled_components_stay_noop(self):
        plan = ScenarioPlan(
            storms=(ChurnStorm(start=0.0, width=5.0, fraction=0.0),),
            crowds=(FlashCrowd(start=0.0, end=5.0, multiplier=1.0),),
        )
        assert plan.is_noop()

    def test_enabled_storm_is_not_noop(self):
        plan = ScenarioPlan(
            storms=(ChurnStorm(start=0.0, width=5.0, fraction=0.2),)
        )
        assert not plan.is_noop()

    def test_rejects_list_fields(self):
        with pytest.raises(ScenarioError):
            ScenarioPlan(storms=[ChurnStorm(0.0, 5.0, 0.2)])
        with pytest.raises(ScenarioError):
            ScenarioPlan(crowds=[FlashCrowd(0.0, 5.0, 2.0)])

    def test_rejects_overlapping_enabled_crowds(self):
        with pytest.raises(ScenarioError):
            ScenarioPlan(
                crowds=(
                    FlashCrowd(start=0.0, end=10.0, multiplier=2.0),
                    FlashCrowd(start=5.0, end=15.0, multiplier=3.0),
                )
            )

    def test_disabled_crowds_may_overlap(self):
        ScenarioPlan(
            crowds=(
                FlashCrowd(start=0.0, end=10.0, multiplier=1.0),
                FlashCrowd(start=5.0, end=15.0, multiplier=2.0),
            )
        )

    def test_abutting_crowds_allowed(self):
        ScenarioPlan(
            crowds=(
                FlashCrowd(start=0.0, end=10.0, multiplier=2.0),
                FlashCrowd(start=10.0, end=20.0, multiplier=3.0),
            )
        )

    def test_hashable_and_picklable(self):
        plan = ScenarioPlan(
            storms=(ChurnStorm(start=10.0, width=5.0, fraction=0.4),),
            crowds=(FlashCrowd(start=10.0, end=40.0, multiplier=3.0),),
        )
        assert hash(plan) == hash(
            pickle.loads(pickle.dumps(plan))
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestScenarioDriver:
    def test_from_plan_gates_none_and_noop(self):
        rng = RngRegistry(7)
        assert ScenarioDriver.from_plan(None, rng) is None
        assert ScenarioDriver.from_plan(ScenarioPlan(), rng) is None

    def test_from_plan_builds_for_enabled(self):
        plan = ScenarioPlan(
            storms=(ChurnStorm(start=0.0, width=5.0, fraction=0.2),)
        )
        assert ScenarioDriver.from_plan(plan, RngRegistry(7)) is not None

    def test_draw_departures_count_and_range(self):
        storm = ChurnStorm(start=100.0, width=20.0, fraction=0.5)
        driver = ScenarioDriver(
            ScenarioPlan(storms=(storm,)), RngRegistry(7)
        )
        departures = driver.draw_departures(storm, 40)
        assert len(departures) == 20
        indexes = [index for index, _ in departures]
        assert len(set(indexes)) == len(indexes)
        assert all(0 <= index < 40 for index in indexes)
        assert all(0.0 <= offset < storm.width for _, offset in departures)

    def test_draw_departures_deterministic(self):
        storm = ChurnStorm(start=100.0, width=20.0, fraction=0.3)
        plan = ScenarioPlan(storms=(storm,))
        first = ScenarioDriver(plan, RngRegistry(11)).draw_departures(
            storm, 50
        )
        second = ScenarioDriver(plan, RngRegistry(11)).draw_departures(
            storm, 50
        )
        assert first == second

    def test_draw_departures_empty_roster(self):
        storm = ChurnStorm(start=0.0, width=5.0, fraction=0.5)
        driver = ScenarioDriver(
            ScenarioPlan(storms=(storm,)), RngRegistry(7)
        )
        assert driver.draw_departures(storm, 0) == []

    def test_draws_only_touch_the_scenario_stream(self):
        # Protocol streams must be bit-identical whether or not the
        # driver drew anything — the substream contract, dynamically.
        storm = ChurnStorm(start=0.0, width=5.0, fraction=0.5)
        plan = ScenarioPlan(storms=(storm,))
        quiet = RngRegistry(13)
        busy = RngRegistry(13)
        ScenarioDriver(plan, busy).draw_departures(storm, 30)
        assert (
            quiet.stream("lifetimes").random()
            == busy.stream("lifetimes").random()
        )


class TestWarpDelay:
    def _driver(self, *crowds):
        return ScenarioDriver(
            ScenarioPlan(crowds=tuple(crowds)), RngRegistry(7)
        )

    def test_no_crowds_is_identity(self):
        storm = ChurnStorm(start=0.0, width=5.0, fraction=0.5)
        driver = ScenarioDriver(
            ScenarioPlan(storms=(storm,)), RngRegistry(7)
        )
        assert driver.warp_delay(10.0, 3.25) == 3.25

    def test_infinite_delay_passes_through(self):
        driver = self._driver(FlashCrowd(0.0, 10.0, 4.0))
        assert driver.warp_delay(0.0, float("inf")) == float("inf")

    def test_inside_window_divides_by_multiplier(self):
        driver = self._driver(FlashCrowd(100.0, 200.0, 4.0))
        assert driver.warp_delay(100.0, 8.0) == pytest.approx(2.0)

    def test_before_window_short_delay_unchanged(self):
        driver = self._driver(FlashCrowd(100.0, 200.0, 4.0))
        assert driver.warp_delay(0.0, 50.0) == 50.0

    def test_delay_crossing_into_window_compresses_tail(self):
        # 10s of load: 5 spent in the gap at intensity 1, the remaining
        # 5 inside the crowd at intensity 4 -> 5 + 5/4 wall seconds.
        driver = self._driver(FlashCrowd(100.0, 200.0, 4.0))
        assert driver.warp_delay(95.0, 10.0) == pytest.approx(6.25)

    def test_delay_crossing_out_of_window(self):
        # Window holds 2s * x4 = 8 load; 10 load total -> 2s inside
        # plus 2 remaining load at baseline after the window.
        driver = self._driver(FlashCrowd(100.0, 102.0, 4.0))
        assert driver.warp_delay(100.0, 10.0) == pytest.approx(4.0)

    def test_drought_stretches_delay(self):
        driver = self._driver(FlashCrowd(100.0, 1000.0, 0.5))
        assert driver.warp_delay(100.0, 4.0) == pytest.approx(8.0)

    def test_consumes_no_rng(self):
        crowd = FlashCrowd(0.0, 100.0, 3.0)
        rng = RngRegistry(17)
        driver = ScenarioDriver(ScenarioPlan(crowds=(crowd,)), rng)
        before = RngRegistry(17).stream("scenario:churn").random()
        driver.warp_delay(0.0, 5.0)
        assert rng.stream("scenario:churn").random() == before
