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
from repro.observe.manifest import from_jsonable
from repro.resilience import ChurnStorm, FlashCrowd, ResiliencePolicy, ScenarioPlan
from repro.workload import ContentModel, FileCountModel

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


def decoded(kind, **data):
    """Decode ``data`` as a manifest's ``kind`` object, when called."""
    return lambda: from_jsonable(kind, data)


#: ``all_on()``'s tuning as an old manifest records it.
BREAKER = {"failure_threshold": 3, "cooldown": 30.0}
BUDGET = {"capacity": 10, "refill_interval": 5.0}


#: Specs whose NaN or infinite knob was accepted, then misbehaved: the
#: bucket refilled at every tick, or the breaker never opened or never
#: half-opened, or ``available()`` raised an untyped ``OverflowError``;
#: an infinite hop delay parked every rumor at t = inf, a NaN one raised
#: mid-run, and a non-finite Pareto shape died building the first peer
#: with a builtin ``ValueError``.  A NaN ping period or lifetime scale
#: raised ``SimulationError`` building the first peer; an infinite one
#: ran with no ping sent, or with no peer ever dying.  An infinite crowd
#: multiplier re-timed every burst in its window to a zero delay, so the
#: run never left that instant (a hang); a NaN one, or a NaN or infinite
#: window edge, failed only mid-run, as ``SimulationError``.
#:
#: A NaN Zipf exponent ran with every rank 1 and satisfaction 0.0, a huge
#: one raised a bare ``OverflowError``; a NaN median file count raised a
#: builtin ``ValueError`` at the first spawn, an infinite sigma an
#: ``OverflowError``.
#:
#: The breaker, budget, hop-delay, notify-delay and Pareto-shape tunings
#: are module constants now; the one way such a value still comes in is
#: an old manifest, whose decoder refuses it typed.
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
        decoded(
            ResiliencePolicy,
            breaker=BREAKER, budget={**BUDGET, "refill_interval": math.nan},
        ),
        ConfigError,
    ),
    "breaker-cooldown-nan": (
        decoded(ResiliencePolicy, breaker={**BREAKER, "cooldown": math.nan}),
        ConfigError,
    ),
    "breaker-cooldown-inf": (
        decoded(ResiliencePolicy, breaker={**BREAKER, "cooldown": math.inf}),
        ConfigError,
    ),
    "breaker-threshold-nan": (
        decoded(ResiliencePolicy, breaker={**BREAKER, "failure_threshold": math.nan}),
        ConfigError,
    ),
    "probe-budget-refill-rate-nan": (
        lambda: ProbeBudget(refill_rate=math.nan, capacity=10),
        ConfigError,
    ),
    "probe-budget-capacity-inf": (
        lambda: ProbeBudget(refill_rate=1.0, capacity=math.inf),
        ConfigError,
    ),
    "gossip-hop-delay-inf": (decoded(GossipPlan, hop_delay=math.inf), ConfigError),
    "gossip-hop-delay-nan": (decoded(GossipPlan, hop_delay=math.nan), ConfigError),
    "freshness-notify-delay-inf": (
        decoded(FreshnessPlan, notify_delay=math.inf),
        ConfigError,
    ),
    "freshness-notify-delay-nan": (
        decoded(FreshnessPlan, notify_delay=math.nan),
        ConfigError,
    ),
    "cache-sizing-alpha-inf": (
        decoded(CacheSizing, policy="power-law", alpha=math.inf),
        ConfigError,
    ),
    "cache-sizing-alpha-nan": (
        decoded(CacheSizing, policy="power-law", alpha=math.nan),
        ConfigError,
    ),
    "flash-crowd-multiplier-inf": (
        lambda: FlashCrowd(start=10.0, end=20.0, multiplier=math.inf),
        ScenarioError,
    ),
    "flash-crowd-multiplier-nan": (
        lambda: FlashCrowd(start=10.0, end=20.0, multiplier=math.nan),
        ScenarioError,
    ),
    "flash-crowd-start-nan": (
        lambda: FlashCrowd(start=math.nan, end=20.0, multiplier=3.0),
        ScenarioError,
    ),
    "flash-crowd-start-inf": (
        lambda: FlashCrowd(start=math.inf, end=math.inf, multiplier=3.0),
        ScenarioError,
    ),
    "flash-crowd-end-nan": (
        lambda: FlashCrowd(start=10.0, end=math.nan, multiplier=3.0),
        ScenarioError,
    ),
    "flash-crowd-end-inf": (
        lambda: FlashCrowd(start=10.0, end=math.inf, multiplier=3.0),
        ScenarioError,
    ),
    "churn-storm-start-nan": (
        lambda: ChurnStorm(start=math.nan, width=5.0, fraction=0.3),
        ScenarioError,
    ),
    "churn-storm-start-inf": (
        lambda: ChurnStorm(start=math.inf, width=5.0, fraction=0.3),
        ScenarioError,
    ),
    "churn-storm-width-nan": (
        lambda: ChurnStorm(start=10.0, width=math.nan, fraction=0.3),
        ScenarioError,
    ),
    "churn-storm-width-inf": (
        lambda: ChurnStorm(start=10.0, width=math.inf, fraction=0.3),
        ScenarioError,
    ),
    "ownership-exponent-nan": (
        lambda: ContentModel(ownership_exponent=math.nan),
        WorkloadError,
    ),
    "ownership-exponent-inf": (
        lambda: ContentModel(ownership_exponent=math.inf),
        WorkloadError,
    ),
    "query-exponent-overflows": (
        lambda: ContentModel(query_exponent=1e308),
        WorkloadError,
    ),
    "median-files-nan": (lambda: FileCountModel(median_files=math.nan), WorkloadError),
    "median-files-inf": (lambda: FileCountModel(median_files=math.inf), WorkloadError),
    "file-sigma-nan": (lambda: FileCountModel(sigma=math.nan), WorkloadError),
    "file-sigma-inf": (lambda: FileCountModel(sigma=math.inf), WorkloadError),
    "tail-alpha-nan": (lambda: FileCountModel(tail_alpha=math.nan), WorkloadError),
    "tail-alpha-inf": (lambda: FileCountModel(tail_alpha=math.inf), WorkloadError),
    "tail-lower-nan": (lambda: FileCountModel(tail_lower=math.nan), WorkloadError),
    "tail-upper-nan": (lambda: FileCountModel(tail_upper=math.nan), WorkloadError),
    "tail-upper-inf": (lambda: FileCountModel(tail_upper=math.inf), WorkloadError),
    # A count is an ``int`` that is not a ``bool``.  A pong size of 2.5 died
    # mid-run in ``LinkCache.select_top`` and a network size of 50.5 at
    # set-up, both with a builtin ``TypeError``; 1.5 walkers ran two-wide
    # waves, 1.5 desired results needed 2, and the rest ran as is.
    "pong-size-float": (lambda: ProtocolParams(pong_size=2.5), ConfigError),
    "pong-size-bool": (lambda: ProtocolParams(pong_size=True), ConfigError),
    "cache-size-float": (lambda: ProtocolParams(cache_size=10.5), ConfigError),
    "parallel-probes-float": (
        lambda: ProtocolParams(parallel_probes=1.5),
        ConfigError,
    ),
    "probe-retries-float": (lambda: ProtocolParams(probe_retries=0.5), ConfigError),
    "network-size-float": (lambda: SystemParams(network_size=50.5), ConfigError),
    "num-desired-results-float": (
        lambda: SystemParams(num_desired_results=1.5),
        ConfigError,
    ),
    "max-probes-per-second-float": (
        lambda: SystemParams(max_probes_per_second=2.5),
        ConfigError,
    ),
}


@pytest.mark.parametrize("case", SPECS)
def test_non_finite_spec_fails_typed(case):
    build, expected = SPECS[case]
    with pytest.raises(expected):
        build()
