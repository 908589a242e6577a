"""Tests for the UDP-like probe transport."""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.network.transport import ProbeStatus, Transport
from repro.sim.rng import RngRegistry


class FakeEndpoint:
    """Scriptable endpoint for transport tests."""

    def __init__(self, alive=True, accept=True, response="pong"):
        self.alive = alive
        self.accept = accept
        self.response = response
        self.received = []

    def is_alive(self, time):
        return self.alive

    def receive_probe(self, message, time):
        self.received.append((message, time))
        return self.accept, self.response


class TestDirectory:
    def test_register_and_lookup(self):
        transport = Transport()
        endpoint = FakeEndpoint()
        transport.register(5, endpoint)
        transport.probe(1, 5, "msg", 0.0)
        assert endpoint.received == [("msg", 0.0)]
        assert len(transport) == 1

    def test_double_register_rejected(self):
        transport = Transport()
        transport.register(5, FakeEndpoint())
        with pytest.raises(ValueError):
            transport.register(5, FakeEndpoint())

    def test_unregister_idempotent(self):
        transport = Transport()
        transport.register(5, FakeEndpoint())
        transport.unregister(5)
        transport.unregister(5)
        assert len(transport) == 0
        assert transport.probe(1, 5, "msg", 0.0).status is ProbeStatus.TIMEOUT


class TestProbing:
    def test_delivered(self):
        transport = Transport()
        endpoint = FakeEndpoint(response="hello")
        transport.register(9, endpoint)
        outcome = transport.probe(1, 9, "msg", 10.0)
        assert outcome.status is ProbeStatus.DELIVERED
        assert outcome.response == "hello"
        assert endpoint.received == [("msg", 10.0)]

    def test_unregistered_times_out(self):
        transport = Transport(timeout=0.2)
        outcome = transport.probe(1, 42, "msg", 0.0)
        assert outcome.status is ProbeStatus.TIMEOUT
        assert outcome.rtt == pytest.approx(0.2)

    def test_dead_endpoint_times_out(self):
        transport = Transport()
        endpoint = FakeEndpoint(alive=False)
        transport.register(9, endpoint)
        outcome = transport.probe(1, 9, "msg", 0.0)
        assert outcome.status is ProbeStatus.TIMEOUT
        assert endpoint.received == []  # dead peers never see the probe

    def test_refused(self):
        transport = Transport()
        transport.register(9, FakeEndpoint(accept=False, response="busy"))
        outcome = transport.probe(1, 9, "msg", 0.0)
        assert outcome.status is ProbeStatus.REFUSED
        assert outcome.response == "busy"

    def test_latency_model_applied(self):
        # One fixed round trip, a quarter of the timeout, for every pair.
        transport = Transport(timeout=0.28)
        transport.register(9, FakeEndpoint())
        transport.register(10, FakeEndpoint())
        assert transport.probe(1, 9, "msg", 0.0).rtt == 0.28 / 4
        assert transport.probe(3, 10, "msg", 0.0).rtt == 0.28 / 4

    def test_counters(self):
        transport = Transport()
        transport.register(9, FakeEndpoint())
        transport.probe(1, 9, "a", 0.0)
        transport.probe(1, 10, "b", 0.0)
        assert transport.probes_sent == 2
        assert transport.timeouts == 1

    def test_refusals_counter(self):
        transport = Transport()
        transport.register(8, FakeEndpoint())
        transport.register(9, FakeEndpoint(accept=False, response="busy"))
        transport.probe(1, 9, "a", 0.0)
        transport.probe(1, 9, "b", 0.0)
        transport.probe(1, 8, "c", 0.0)
        assert transport.refusals == 2
        assert transport.timeouts == 0
        assert transport.probes_sent == 3

    def test_repr_surfaces_all_counters(self):
        transport = Transport()
        transport.register(9, FakeEndpoint(accept=False))
        transport.probe(1, 9, "a", 0.0)
        transport.probe(1, 42, "b", 0.0)
        text = repr(transport)
        assert "probes=2" in text
        assert "timeouts=1" in text
        assert "refusals=1" in text

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            Transport(timeout=0.0)

    def test_invalid_latency(self):
        # The round trip is timeout / 4: a negative one needs a negative
        # timeout, which the constructor refuses.
        with pytest.raises(ValueError):
            Transport(timeout=-0.1)


class TestRttCharging:
    """The two deliberate RTT charging rules (see ProbeOutcome docstring).

    * A TIMEOUT is charged the **full timeout period** — the sender
      learns nothing until the whole window has elapsed.
    * A REFUSED probe is charged the **round trip** (``timeout / 4``) —
      the refusal notice is a real reply from a live peer and travels
      the same round trip a pong would.
    """

    def test_timeout_charged_full_timeout_period(self):
        transport = Transport(timeout=0.35)
        transport.register(9, FakeEndpoint(alive=False))
        dead = transport.probe(1, 9, "m", 0.0)
        unregistered = transport.probe(1, 77, "m", 0.0)
        assert dead.rtt == pytest.approx(0.35)
        assert unregistered.rtt == pytest.approx(0.35)

    def test_refusal_charged_full_delivery_latency(self):
        transport = Transport(timeout=0.35)
        transport.register(9, FakeEndpoint(accept=False, response="busy"))
        refused = transport.probe(1, 9, "m", 0.0)
        assert refused.status is ProbeStatus.REFUSED
        assert refused.rtt == pytest.approx(0.35 / 4)

    def test_refusal_and_delivery_cost_the_same_wire_time(self):
        transport = Transport(timeout=0.16)
        transport.register(8, FakeEndpoint())
        transport.register(9, FakeEndpoint(accept=False))
        assert transport.probe(1, 8, "m", 0.0).rtt == pytest.approx(
            transport.probe(1, 9, "m", 0.0).rtt
        )


class TestFaultInjection:
    def make_transport(self, plan, seed=5, **kwargs):
        injector = FaultInjector.from_plan(plan, RngRegistry(seed))
        return Transport(faults=injector, **kwargs)

    def test_certain_loss_spuriously_times_out_live_target(self):
        transport = self.make_transport(FaultPlan(loss_rate=1.0), timeout=0.2)
        endpoint = FakeEndpoint()
        transport.register(9, endpoint)
        outcome = transport.probe(1, 9, "m", 0.0)
        assert outcome.status is ProbeStatus.TIMEOUT
        assert outcome.spurious
        assert outcome.rtt == pytest.approx(0.2)  # full timeout charged
        assert endpoint.received == []  # the probe never arrived
        assert transport.spurious_timeouts == 1
        assert transport.timeouts == 1

    def test_dead_target_timeout_is_not_spurious(self):
        transport = self.make_transport(FaultPlan(loss_rate=1.0))
        transport.register(9, FakeEndpoint(alive=False))
        outcome = transport.probe(1, 9, "m", 0.0)
        assert outcome.status is ProbeStatus.TIMEOUT
        assert not outcome.spurious
        assert transport.spurious_timeouts == 0

    def test_dead_targets_consume_no_fault_randomness(self):
        """Fault streams are a pure function of the live-probe sequence."""
        plan = FaultPlan(loss_rate=0.5)
        with_corpses = self.make_transport(plan, seed=13)
        without = self.make_transport(plan, seed=13)
        for transport in (with_corpses, without):
            transport.register(9, FakeEndpoint())
        with_corpses.register(66, FakeEndpoint(alive=False))
        verdicts_a, verdicts_b = [], []
        for t in range(100):
            with_corpses.probe(1, 66, "corpse", float(t))  # dead interleaved
            verdicts_a.append(with_corpses.probe(1, 9, "m", float(t)).status)
            verdicts_b.append(without.probe(1, 9, "m", float(t)).status)
        assert verdicts_a == verdicts_b

    def test_jitter_reprices_delivered_rtt_only(self):
        transport = self.make_transport(FaultPlan(jitter=0.5), timeout=0.2)
        transport.register(9, FakeEndpoint())
        rtts = [transport.probe(1, 9, "m", float(t)).rtt for t in range(50)]
        # Jitter adds on top of the round trip, timeout / 4 = 0.05.
        assert all(0.05 <= rtt < 0.55 for rtt in rtts)
        assert len(set(rtts)) > 1
        assert transport.timeouts == 0  # jitter never drops probes

    def test_no_injector_keeps_spurious_false(self):
        transport = Transport()
        transport.register(9, FakeEndpoint())
        assert not transport.probe(1, 9, "m", 0.0).spurious
        assert transport.spurious_timeouts == 0
