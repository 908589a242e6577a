"""Degenerate configurations fail typed or run clean — never hang.

ROADMAP aim 3: a configuration at the edge of the parameter space either
raises a :mod:`repro.errors` type while it is being built or runs to a
report.  Each case builds *and* runs inside an alarm, so a hang (the
failure mode PR 13 found for ``health_sample_interval <= 0``) is a
failed test, not a stuck suite.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import pytest

from repro.baselines.gossip import GossipPlan
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.errors import (
    ConfigError,
    FreshnessError,
    ScenarioError,
    SimulationError,
    WorkloadError,
)
from repro.extensions.selfish import ProbeBudget
from repro.freshness import CacheSizing, FreshnessPlan
from repro.metrics.collectors import SimulationReport
from repro.resilience import ChurnStorm, ScenarioPlan
from repro.resilience.breaker import BreakerSpec
from repro.resilience.budget import BudgetSpec

TIMEOUT_SECONDS = 20

EVERYONE_DIES = ScenarioPlan(
    storms=(ChurnStorm(start=10.0, width=5.0, fraction=1.0),)
)


@contextmanager
def alarm(seconds: int):
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def simulate(*, runs=(60.0,), n=40, system=None, protocol=None, **plans):
    """Build from raw keyword dicts, so a params error is part of the case."""
    sim = GuessSimulation(
        SystemParams(**{"network_size": n, **(system or {})}),
        ProtocolParams(**{"cache_size": 10, **(protocol or {})}),
        seed=5,
        **plans,
    )
    for duration in runs:
        sim.run(duration)
    return sim.report()


#: ``(simulate() arguments, expected)``: a ``repro.errors`` type, or what
#: the report of a clean run must show for the case to have run at all.
CASES = {
    "zero-peers": (dict(n=0), ConfigError),
    "one-peer": (dict(n=1), ConfigError),
    "two-peers": (dict(n=2), lambda r: r.pings_sent > 0),
    "all-malicious": (
        dict(system=dict(percent_bad_peers=100.0)),
        lambda r: r.queries == 0 and r.pings_sent > 0,
    ),
    "everyone-dies-in-a-storm": (
        dict(scenarios=EVERYONE_DIES),
        lambda r: r.deaths == r.births == 40 and r.queries > 0,
    ),
    "empty-pongs": (dict(protocol=dict(pong_size=0)), lambda r: r.queries > 0),
    "zero-duration": (dict(runs=(0.0,)), lambda r: r.pings_sent == 0),
    "zero-duration-then-run": (dict(runs=(0.0, 60.0)), lambda r: r.queries > 0),
    "no-cache": (dict(protocol=dict(cache_size=0)), ConfigError),
    "no-cache-gossip-armed": (
        dict(protocol=dict(cache_size=0), gossip=GossipPlan(fanout=2, ttl=2)),
        ConfigError,
    ),
    "no-cache-freshness-armed": (
        dict(
            protocol=dict(cache_size=0),
            freshness=FreshnessPlan(notify_budget=3, depth=2),
        ),
        ConfigError,
    ),
    "zero-desired-results": (
        dict(system=dict(num_desired_results=0)),
        ConfigError,
    ),
    "satisfaction-window-nan": (dict(satisfaction_window=math.nan), ConfigError),
    "satisfaction-window-inf": (dict(satisfaction_window=math.inf), ConfigError),
    "satisfaction-window-zero": (dict(satisfaction_window=0.0), ConfigError),
    "warmup-nan": (dict(warmup=math.nan), ConfigError),
    # An infinite rate repeats bursts forever at one instant (a hang).
    "query-rate-inf": (dict(system=dict(query_rate=math.inf)), ConfigError),
    "query-rate-nan": (dict(system=dict(query_rate=math.nan)), ConfigError),
    # A NaN lifetime or ping period is refused before the first peer.
    "lifespan-multiplier-nan": (
        dict(system=dict(lifespan_multiplier=math.nan)),
        ConfigError,
    ),
    "ping-interval-nan": (
        dict(protocol=dict(ping_interval=math.nan)),
        ConfigError,
    ),
    "run-for-nan": (dict(runs=(math.nan,)), SimulationError),
    # A probe time is a finite number: 0 * inf is NaN, and a NaN-stamped
    # probe counts as dead.
    "probe-spacing-inf": (dict(protocol=dict(probe_spacing=math.inf)), ConfigError),
    "probe-spacing-nan": (dict(protocol=dict(probe_spacing=math.nan)), ConfigError),
    # Pings reschedule forever, so an infinite run never drains (a hang).
    "run-for-inf": (dict(runs=(math.inf,)), SimulationError),
}


@pytest.mark.parametrize("case", CASES)
def test_degenerate_configuration_fails_typed_or_reports(case):
    arguments, expected = CASES[case]
    with alarm(TIMEOUT_SECONDS):
        if isinstance(expected, type):
            with pytest.raises(expected):
                simulate(**arguments)
            return
        report = simulate(**arguments)
    assert isinstance(report, SimulationReport)
    assert expected(report), report


#: Specs whose NaN or infinite knob was accepted, then misbehaved: the
#: bucket refilled at every tick, or the breaker never opened or never
#: half-opened, or ``available()`` raised an untyped ``OverflowError``;
#: an infinite hop delay parked every rumor at t = inf, a NaN one raised
#: mid-run, and a non-finite Pareto shape died building the first peer
#: with a builtin ``ValueError``.  A NaN ping period or lifetime scale
#: raised ``SimulationError`` building the first peer; an infinite one
#: ran with no ping sent, or with no peer ever dying.
SPECS = {
    "ping-interval-nan": (lambda: ProtocolParams(ping_interval=math.nan), ConfigError),
    "ping-interval-inf": (lambda: ProtocolParams(ping_interval=math.inf), ConfigError),
    "lifespan-multiplier-nan": (
        lambda: SystemParams(lifespan_multiplier=math.nan),
        ConfigError,
    ),
    "lifespan-multiplier-inf": (
        lambda: SystemParams(lifespan_multiplier=math.inf),
        ConfigError,
    ),
    "budget-refill-interval-nan": (
        lambda: BudgetSpec(refill_interval=math.nan),
        ScenarioError,
    ),
    "breaker-cooldown-nan": (lambda: BreakerSpec(cooldown=math.nan), ScenarioError),
    "breaker-cooldown-inf": (lambda: BreakerSpec(cooldown=math.inf), ScenarioError),
    "breaker-threshold-nan": (
        lambda: BreakerSpec(failure_threshold=math.nan),
        ScenarioError,
    ),
    "probe-budget-refill-rate-nan": (
        lambda: ProbeBudget(refill_rate=math.nan, capacity=10),
        ConfigError,
    ),
    "probe-budget-capacity-inf": (
        lambda: ProbeBudget(refill_rate=1.0, capacity=math.inf),
        ConfigError,
    ),
    "gossip-hop-delay-inf": (lambda: GossipPlan(hop_delay=math.inf), WorkloadError),
    "gossip-hop-delay-nan": (lambda: GossipPlan(hop_delay=math.nan), WorkloadError),
    "freshness-notify-delay-inf": (
        lambda: FreshnessPlan(notify_delay=math.inf),
        FreshnessError,
    ),
    "freshness-notify-delay-nan": (
        lambda: FreshnessPlan(notify_delay=math.nan),
        FreshnessError,
    ),
    "cache-sizing-alpha-inf": (
        lambda: CacheSizing(policy="power-law", alpha=math.inf),
        FreshnessError,
    ),
    "cache-sizing-alpha-nan": (
        lambda: CacheSizing(policy="power-law", alpha=math.nan),
        FreshnessError,
    ),
}


@pytest.mark.parametrize("case", SPECS)
def test_non_finite_spec_fails_typed(case):
    build, expected = SPECS[case]
    with pytest.raises(expected):
        build()
