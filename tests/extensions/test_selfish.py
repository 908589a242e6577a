"""Tests for the selfish-peer model and probe payments."""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.search import execute_query
from repro.errors import ConfigError
from repro.extensions.selfish import ProbeBudget, execute_selfish_query
from repro.network.transport import Transport
from tests.conftest import make_entry
from tests.core.helpers import make_peer


@pytest.fixture
def rng():
    return random.Random(55)


def build_network(num_peers, owner_index=None):
    protocol = ProtocolParams(cache_size=200, probe_spacing=0.2)
    querier = make_peer(0, protocol=protocol, library=frozenset())
    transport = Transport()
    transport.register(0, querier)
    for i in range(1, num_peers + 1):
        library = frozenset({42}) if i == owner_index else frozenset()
        peer = make_peer(i, protocol=protocol, library=library)
        transport.register(i, peer)
        querier.link_cache.insert(
            make_entry(i), querier.policies.replacement, querier._policy_rng,
        )
    return querier, transport


class TestProbeBudget:
    def test_starts_full(self):
        assert ProbeBudget(refill_rate=1.0, capacity=10).available(0.0) == 10

    def test_spend_and_refill(self):
        budget = ProbeBudget(refill_rate=2.0, capacity=10)
        budget.spend(0.0, 10)
        assert budget.available(0.0) == 0
        assert budget.available(3.0) == 6

    def test_refill_caps_at_capacity(self):
        budget = ProbeBudget(refill_rate=100.0, capacity=10)
        budget.spend(0.0, 5)
        assert budget.available(100.0) == 10

    def test_overdraft_clamps_to_zero(self):
        budget = ProbeBudget(refill_rate=1.0, capacity=10)
        budget.spend(0.0, 50)
        assert budget.available(0.0) == 0

    def test_custom_initial(self):
        assert ProbeBudget(1.0, 10, initial=3).available(0.0) == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProbeBudget(refill_rate=-1.0, capacity=10)
        with pytest.raises(ConfigError):
            ProbeBudget(refill_rate=1.0, capacity=0)
        with pytest.raises(ConfigError):
            ProbeBudget(refill_rate=1.0, capacity=10, initial=20)
        budget = ProbeBudget(1.0, 10)
        with pytest.raises(ConfigError):
            budget.spend(0.0, -1)


class TestSelfishQuery:
    def test_blasts_everything_in_near_zero_time(self, rng):
        querier, transport = build_network(50)  # no owner: full blast
        result = execute_selfish_query(querier, 42, transport, 0.0, rng=rng)
        assert result.probes == 50
        # One massive wave: the selfish peer waits a single spacing.
        assert result.duration <= 0.2 + 1e-9

    def test_imposes_more_load_than_protocol(self, rng):
        """Same network, same (rare-ish) query: selfish costs more probes."""
        querier_a, transport_a = build_network(50, owner_index=40)
        honest = execute_query(querier_a, 42, transport_a, 0.0, rng=random.Random(1))
        querier_b, transport_b = build_network(50, owner_index=40)
        selfish = execute_selfish_query(
            querier_b, 42, transport_b, 0.0, rng=random.Random(1)
        )
        assert selfish.satisfied
        assert selfish.probes >= honest.probes
        assert selfish.duration <= honest.duration

    def test_budget_caps_probe_count(self, rng):
        querier, transport = build_network(50)
        budget = ProbeBudget(refill_rate=0.1, capacity=10)
        result = execute_selfish_query(
            querier, 42, transport, 0.0, rng=rng, budget=budget
        )
        assert result.probes <= 10
        assert budget.available(0.0) == 0

    def test_broke_peer_cannot_probe(self, rng):
        querier, transport = build_network(10)
        budget = ProbeBudget(refill_rate=0.1, capacity=10, initial=0)
        result = execute_selfish_query(
            querier, 42, transport, 0.0, rng=rng, budget=budget
        )
        assert result.probes == 0
        assert not result.satisfied

    def test_budget_refills_between_queries(self, rng):
        querier, transport = build_network(30)
        budget = ProbeBudget(refill_rate=1.0, capacity=20)
        first = execute_selfish_query(
            querier, 42, transport, 0.0, rng=rng, budget=budget
        )
        assert first.probes == 20
        later = execute_selfish_query(
            querier, 42, transport, 10.0, rng=rng, budget=budget
        )
        assert later.probes == 10  # the 10 credits refilled by t=10

    def test_protocol_restored_after_query(self, rng):
        querier, transport = build_network(5)
        original = querier.protocol
        execute_selfish_query(querier, 42, transport, 0.0, rng=rng)
        assert querier.protocol is original
