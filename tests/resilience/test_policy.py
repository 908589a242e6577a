"""Tests for the resilience policy: one value, every mechanism armed."""

from __future__ import annotations

import pickle
from dataclasses import fields

from repro.resilience.policy import SOFT_FRACTION, ResiliencePolicy
from tests.core.helpers import make_peer


class TestResiliencePolicy:
    def test_has_no_fields(self):
        assert fields(ResiliencePolicy) == ()
        assert ResiliencePolicy() == ResiliencePolicy.all_on()

    def test_all_on_arms_everything(self):
        peer = make_peer(
            1, max_probes_per_second=4, resilience=ResiliencePolicy.all_on()
        )
        assert peer.breakers is not None and peer.retry_budget is not None
        assert peer._soft_limit == int(SOFT_FRACTION * 4) == 2

    def test_none_arms_nothing(self):
        peer = make_peer(1, max_probes_per_second=4, resilience=None)
        assert peer.breakers is None and peer.retry_budget is None
        assert peer._soft_limit is None

    def test_shedding_needs_a_hard_limit(self):
        peer = make_peer(1, resilience=ResiliencePolicy.all_on())
        assert peer.breakers is not None and peer._soft_limit is None

    def test_picklable(self):
        policy = ResiliencePolicy.all_on()
        assert pickle.loads(pickle.dumps(policy)) == policy
