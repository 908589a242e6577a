"""The four benchmark workloads: what is built, what is timed, what is checked.

Every workload is a closed batch job — one simulation (or one CLI
invocation) at a time, no arrival process — so the figure of merit is
work completed per host second at a stated input size.  None of them
passes ``scheduler=``: the benchmark measures whatever the default is.

The ``why`` strings are copied into ``BENCHMARK.json``; keep them to one
line.  Sizes are ``{scale: (population, simulated seconds)}``; ``tiny``
exists for ``bench/test_bench.py`` only and is never reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: Scenario geometry of ``armed_n500`` (simulated seconds).  The run must
#: outlast the flash crowd so every armed layer has done work.
STORM_START, STORM_WIDTH, STORM_FRACTION = 40.0, 10.0, 0.4
CROWD_END = 100.0

#: Ceiling on ``armed_n500``'s power-law cache sizes (4x the base of 30).
#: Pareto(2) factors have infinite variance; uncapped, one peer in a few
#: runs draws a cache of a thousand slots and the footprint and the work
#: per probe become a property of the seed (RSS moved 58-72 MiB).
ARMED_MAX_CACHE = 120

#: ``armed_n500`` draws file counts from the log-normal body only.  With
#: the default 7 % bounded-Pareto tail, 500 peers hold about 26 heavy
#: sharers, and how many a seed draws decides how early queries are
#: satisfied: probes moved 140k-250k and peak RSS 55-69 MiB between seeds.
ARMED_FILE_TAIL_P = 0.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` token.
        why: one line on which layers it stresses and which it bypasses.
        sizes: ``{scale: (population, simulated seconds)}``; the suite
            takes its sizes from the CLI's ``smoke`` profile instead.
        build: ``(population, seed, trace_hash) -> GuessSimulation``, or
            None for the CLI workload.
        check: ``(report, sim, population) -> [failure, ...]`` run outside
            the timed region.
    """

    name: str
    why: str
    sizes: Dict[str, Tuple[int, float]]
    build: Callable[[int, int, bool], Any] | None
    check: Callable[[Any, Any, int], List[str]]


# ----------------------------------------------------------------------
# Builders (imports are local: importing this module must stay free, so
# the driver can read names and reasons without paying for ``repro``)
# ----------------------------------------------------------------------


def _build_paper(population: int, seed: int, trace_hash: bool):
    from repro import GuessSimulation, ProtocolParams, SystemParams

    return GuessSimulation(
        SystemParams(network_size=population),
        ProtocolParams(),
        seed=seed,
        trace_hash=trace_hash,
    )


def _build_churn(population: int, seed: int, trace_hash: bool):
    from repro import GuessSimulation, ProtocolParams, SystemParams

    return GuessSimulation(
        SystemParams(network_size=population, query_rate=0.0),
        ProtocolParams(cache_size=10),
        seed=seed,
        trace_hash=trace_hash,
    )


def _build_armed(population: int, seed: int, trace_hash: bool):
    from repro import GuessSimulation, ProtocolParams, SystemParams
    from repro.baselines.gossip import GossipPlan
    from repro.faults.plan import FaultPlan
    from repro.freshness.plan import CacheSizing, FreshnessPlan
    from repro.resilience.policy import ResiliencePolicy
    from repro.resilience.scenarios import ChurnStorm, FlashCrowd, ScenarioPlan
    from repro.workload.files import FileCountModel

    return GuessSimulation(
        SystemParams(network_size=population),
        ProtocolParams(cache_size=30, probe_retries=2),
        seed=seed,
        trace_hash=trace_hash,
        file_model=FileCountModel(tail_p=ARMED_FILE_TAIL_P),
        faults=FaultPlan(loss_rate=0.05),
        scenarios=ScenarioPlan(
            storms=(
                ChurnStorm(
                    start=STORM_START, width=STORM_WIDTH, fraction=STORM_FRACTION
                ),
            ),
            crowds=(FlashCrowd(start=STORM_START, end=CROWD_END, multiplier=3.0),),
        ),
        resilience=ResiliencePolicy.all_on(),
        satisfaction_window=25.0,
        gossip=GossipPlan(fanout=1, ttl=2),
        freshness=FreshnessPlan(
            notify_budget=3,
            depth=2,
            sizing=CacheSizing(policy="power-law", max_capacity=ARMED_MAX_CACHE),
        ),
    )


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def _accounted_probes(report) -> int:
    """Probes the collector saw, summed over every channel that sends one."""
    return (
        report.total_probes
        + report.probe_retries
        + report.pings_sent
        + report.ping_retries
        + report.gossip_pushes
        + report.freshness_notices
    )


def check_conservation(report, probes_sent: int) -> List[str]:
    """Every probe the wire carried is accounted for by the collector."""
    accounted = _accounted_probes(report)
    if accounted != probes_sent:
        return [f"transport sent {probes_sent} probes, collector saw {accounted}"]
    return []


def _check_disarmed(report, sim) -> List[str]:
    """With every plan off, a timeout is a dead peer and nothing else."""
    failures = check_conservation(report, sim.transport.probes_sent)
    dead = report.dead_probes + report.dead_pings
    if sim.transport.timeouts != dead:
        failures.append(
            f"transport timed out {sim.transport.timeouts}, collector saw {dead}"
        )
    return failures


def _check_paper(report, sim, population: int) -> List[str]:
    failures = _check_disarmed(report, sim)
    if report.queries <= 0:
        failures.append("no query ran")
    elif not 0.5 <= report.satisfaction_rate <= 1.0:
        failures.append(f"satisfaction_rate {report.satisfaction_rate:.3f}")
    return failures


def _check_churn(report, sim, population: int) -> List[str]:
    failures = _check_disarmed(report, sim)
    if report.queries != 0:
        failures.append(f"{report.queries} queries ran on the query-free workload")
    if report.pings_sent <= 0:
        failures.append("no ping was sent")
    return failures


def _check_armed(report, sim, population: int) -> List[str]:
    failures = check_conservation(report, sim.transport.probes_sent)
    storm_floor = 0.75 * STORM_FRACTION * population
    armed = {
        "queries": report.queries,
        "gossip pushes": report.gossip_pushes,
        "freshness notices": report.freshness_notices,
        "retries": report.probe_retries + report.ping_retries,
    }
    failures.extend(f"armed layer idle: {k} = 0" for k, v in armed.items() if v <= 0)
    if report.deaths < storm_floor:
        failures.append(
            f"{report.deaths} deaths, the storm alone should cause {storm_floor:.0f}"
        )
    return failures


def check_suite_report(report) -> List[str]:
    """Per-trial check of the CLI workload (applied to each report).

    The smoke profile has a warm-up the collector discards, so the
    collector may see fewer probes than the wire carried, never more.
    """
    failures = []
    accounted, sent = _accounted_probes(report), report.transport_probes_sent
    if not 0 < accounted <= sent:
        failures.append(f"transport sent {sent} probes, collector saw {accounted}")
    if report.queries <= 0:
        failures.append("no query ran")
    return failures


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: The CLI workload's argv (paths are appended by the cell).
SUITE_ARGV = (
    "--profile", "smoke",
    "--only", "policy_comparison",
    "--workers", "1",
    "--profile-report",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_n5000",
            why=(
                "Paper's largest scale, Table-1/2 defaults: ~98% of host time is the query "
                "path (execute_query, transport, peer, cache append); ~2k events, so "
                "engine/scheduler work is bypassed."
            ),
            sizes={"full": (5000, 12.0), "tiny": (300, 30.0)},
            build=_build_paper,
            check=_check_paper,
        ),
        Workload(
            name="churn_n10000",
            why=(
                "query_rate=0 bypasses the query path: only pings, deaths, births, so "
                "engine/scheduler, spawn and eviction contests in always-full caches of 10 "
                "do the work; largest set-up and RSS."
            ),
            sizes={"full": (10000, 360.0), "tiny": (500, 60.0)},
            build=_build_churn,
            check=_check_churn,
        ),
        Workload(
            name="armed_n500",
            why=(
                "Faults, storm+crowd, resilience, gossip and freshness all armed; the other "
                "three run the same hot paths with every plan None, so a seam's cost shows "
                "as a split between them."
            ),
            sizes={"full": (500, 120.0), "tiny": (100, 120.0)},
            build=_build_armed,
            check=_check_armed,
        ),
        Workload(
            name="suite_fig9_12",
            why=(
                "What a user types: run_all --profile smoke --only policy_comparison; 15 "
                "trials via runner/executor/reporting/manifest and the key-based policy "
                "paths the Random-policy workloads skip."
            ),
            sizes={"full": (200, 300.0), "tiny": (200, 30.0)},
            build=None,
            check=lambda report, sim, population: check_suite_report(report),
        ),
    )
}
