"""Tests for probe retry policies and the retry driver."""

from __future__ import annotations

import math

import pytest

from repro.core.params import ProtocolParams
from repro.errors import ConfigError
from repro.faults.retry import RetriedProbe, RetryPolicy, probe_with_retry
from repro.network.transport import ProbeOutcome, ProbeStatus


class ScriptedTransport:
    """Replays a fixed outcome sequence; records every (dst, time) send."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.sent = []

    def probe(self, src, dst, message, time):
        self.sent.append((dst, time))
        return self.outcomes.pop(0)


def timeout(rtt=0.2, spurious=False):
    return ProbeOutcome(
        status=ProbeStatus.TIMEOUT, rtt=rtt, spurious=spurious
    )


def delivered(rtt=0.05, response="pong"):
    return ProbeOutcome(
        status=ProbeStatus.DELIVERED, response=response, rtt=rtt
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff="quadratic")
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        # A retried send's time is finite: NaN and inf fail both bounds.
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                RetryPolicy(base_delay=bad)
            with pytest.raises(ConfigError):
                RetryPolicy(backoff="exponential", multiplier=bad)

    def test_enabled(self):
        assert not RetryPolicy().enabled
        assert RetryPolicy(max_attempts=2).enabled

    def test_fixed_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff="fixed", base_delay=0.3)
        assert [policy.delay(i) for i in range(3)] == [0.3, 0.3, 0.3]

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=4,
            backoff="exponential",
            base_delay=0.1,
            multiplier=2.0,
        )
        assert [policy.delay(i) for i in range(3)] == pytest.approx(
            [0.1, 0.2, 0.4]
        )

    def test_from_protocol_defaults_base_to_probe_spacing(self):
        protocol = ProtocolParams(probe_retries=2)
        policy = RetryPolicy.from_protocol(protocol)
        assert policy.max_attempts == 3
        assert policy.base_delay == protocol.probe_spacing

    def test_from_protocol_explicit_knobs(self):
        protocol = ProtocolParams(
            probe_retries=1,
            retry_backoff="exponential",
            retry_base=0.5,
            retry_multiplier=3.0,
        )
        policy = RetryPolicy.from_protocol(protocol)
        assert policy == RetryPolicy(
            max_attempts=2,
            backoff="exponential",
            base_delay=0.5,
            multiplier=3.0,
        )


class TestProbeWithRetry:
    POLICY = RetryPolicy(max_attempts=3, backoff="fixed", base_delay=0.1)

    def test_immediate_delivery_passes_outcome_through_untouched(self):
        outcome = delivered()
        transport = ScriptedTransport([outcome])
        result = probe_with_retry(transport, self.POLICY, 1, 2, "m", 10.0)
        assert result == RetriedProbe(
            outcome=outcome, attempts=1, recovered=False, delay=0.0
        )
        assert result.outcome is outcome  # bit-identical fast path
        assert result.retries == 0

    def test_disabled_policy_never_retries(self):
        transport = ScriptedTransport([timeout()])
        result = probe_with_retry(transport, RetryPolicy(), 1, 2, "m", 0.0)
        assert result.attempts == 1
        assert not result.recovered
        assert transport.sent == [(2, 0.0)]

    def test_recovery_charges_full_wait(self):
        """Retried sends happen later, and the RTT covers the whole wait."""
        transport = ScriptedTransport([timeout(rtt=0.2), delivered(rtt=0.05)])
        result = probe_with_retry(transport, self.POLICY, 1, 2, "m", 10.0)
        assert result.recovered
        assert result.attempts == 2
        # Gap = first attempt's timeout (0.2) + backoff (0.1).
        assert result.delay == pytest.approx(0.3)
        assert transport.sent == [(2, 10.0), (2, pytest.approx(10.3))]
        # Final RTT = whole wait + final round trip.
        assert result.outcome.rtt == pytest.approx(0.35)
        assert result.outcome.status is ProbeStatus.DELIVERED

    def test_refusal_counts_as_recovery(self):
        refused = ProbeOutcome(
            status=ProbeStatus.REFUSED, response="busy", rtt=0.05
        )
        transport = ScriptedTransport([timeout(), refused])
        result = probe_with_retry(transport, self.POLICY, 1, 2, "m", 0.0)
        assert result.recovered
        assert result.outcome.status is ProbeStatus.REFUSED

    def test_exhausted_budget_accumulates_every_timeout(self):
        transport = ScriptedTransport([timeout(rtt=0.2)] * 3)
        result = probe_with_retry(transport, self.POLICY, 1, 2, "m", 0.0)
        assert result.attempts == 3
        assert not result.recovered
        # Sends at 0, 0.3, 0.6; final RTT = 0.6 of waiting + 0.2 timeout.
        assert [t for _, t in transport.sent] == pytest.approx(
            [0.0, 0.3, 0.6]
        )
        assert result.delay == pytest.approx(0.6)
        assert result.outcome.rtt == pytest.approx(0.8)
        assert result.outcome.status is ProbeStatus.TIMEOUT

    def test_spurious_flag_survives_rtt_repricing(self):
        transport = ScriptedTransport(
            [timeout(), timeout(), timeout(spurious=True)]
        )
        result = probe_with_retry(transport, self.POLICY, 1, 2, "m", 0.0)
        assert result.outcome.spurious

    def test_exponential_backoff_spaces_attempts(self):
        policy = RetryPolicy(
            max_attempts=3,
            backoff="exponential",
            base_delay=0.1,
            multiplier=2.0,
        )
        transport = ScriptedTransport([timeout(rtt=0.2)] * 3)
        probe_with_retry(transport, policy, 1, 2, "m", 0.0)
        # Gaps: 0.2+0.1, then 0.2+0.2.
        assert [t for _, t in transport.sent] == pytest.approx(
            [0.0, 0.3, 0.7]
        )
