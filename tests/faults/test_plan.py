"""Tests for the declarative fault plans."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (
    BrownoutSpec,
    FaultPlan,
    GilbertElliott,
    PartitionWindow,
)


class TestValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ConfigError):
            FaultPlan(loss_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(loss_rate=1.5)

    def test_jitter_nonnegative(self):
        with pytest.raises(ConfigError):
            FaultPlan(jitter=-0.01)

    @pytest.mark.parametrize(
        "field", ["loss_good", "loss_bad", "p_good_to_bad", "p_bad_to_good"]
    )
    def test_burst_probabilities(self, field):
        with pytest.raises(ConfigError):
            GilbertElliott(**{field: 1.1})

    def test_brownout_nonnegative(self):
        with pytest.raises(ConfigError):
            BrownoutSpec(rate=-1.0)
        with pytest.raises(ConfigError):
            BrownoutSpec(rate=1.0, duration=-5.0)

    def test_partition_window_ordering(self):
        with pytest.raises(ConfigError):
            PartitionWindow(start=10.0, end=10.0)
        with pytest.raises(ConfigError):
            PartitionWindow(start=-1.0, end=5.0)
        with pytest.raises(ConfigError):
            PartitionWindow(start=0.0, end=5.0, fraction=2.0)

    def test_partitions_must_be_tuple(self):
        window = PartitionWindow(start=0.0, end=5.0)
        with pytest.raises(ConfigError):
            FaultPlan(partitions=[window])


class TestNoop:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop()

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(loss_rate=0.01),
            FaultPlan(jitter=0.1),
            FaultPlan(burst=GilbertElliott(loss_good=0.05)),
            FaultPlan(
                burst=GilbertElliott(loss_bad=0.9, p_good_to_bad=0.01)
            ),
            FaultPlan(brownouts=BrownoutSpec(rate=0.001, duration=30.0)),
            FaultPlan(partitions=(PartitionWindow(start=0.0, end=10.0),)),
        ],
        ids=["loss", "jitter", "burst-good", "burst-bad", "brownout", "cut"],
    )
    def test_any_active_source_defeats_noop(self, plan):
        assert not plan.is_noop()

    def test_unreachable_bad_state_is_noop(self):
        # loss_bad > 0 but the chain can never leave the good state.
        burst = GilbertElliott(loss_bad=0.9, p_good_to_bad=0.0)
        assert not burst.enabled
        assert FaultPlan(burst=burst).is_noop()

    def test_zero_duration_brownout_is_noop(self):
        assert FaultPlan(brownouts=BrownoutSpec(rate=5.0)).is_noop()


class TestPlumbing:

    def test_plans_hash_and_pickle(self):
        plan = FaultPlan(
            loss_rate=0.05,
            jitter=0.02,
            burst=GilbertElliott(loss_bad=0.5, p_good_to_bad=0.1),
            brownouts=BrownoutSpec(rate=0.01, duration=20.0),
            partitions=(PartitionWindow(start=5.0, end=25.0, salt=3),),
        )
        assert hash(plan) == hash(plan)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_partition_covers_half_open(self):
        window = PartitionWindow(start=5.0, end=10.0)
        assert not window.covers(4.999)
        assert window.covers(5.0)
        assert window.covers(9.999)
        assert not window.covers(10.0)
