"""Ablation experiments for design choices beyond the paper's figures.

These quantify the extension mechanisms (DESIGN.md §5) with the same
harness as the paper artifacts:

* ``ablation-parallel`` — fixed k-parallel probing: probes vs response
  time as k grows (§6.2's arithmetic, measured).
* ``ablation-backoff`` — the ``DoBackoff`` flag under tight capacity.
* ``ablation-adaptive-search`` — serial vs fixed-k vs adaptive
  escalation on a static network.
* ``ablation-detection`` — pong-provenance defense vs the colluding
  attack that defeats MR.
"""

from __future__ import annotations

import random
from typing import List

from repro.baselines.extent import PopulationView
from repro.core.entry import CacheEntry
from repro.core.network_sim import GuessSimulation
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.core.search import execute_query
from repro.experiments.executor import TrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    grid_table,
    run_sweep,
)
from repro.extensions.adaptive_search import (
    EscalatingWidth,
    execute_adaptive_query,
)
from repro.extensions.detection import DefenseConfig, install_defense
from repro.metrics.summary import mean, quantile
from repro.network.transport import Transport
from repro.sim.rng import derive_seed

#: Walker counts swept by the parallel ablation.
PARALLEL_WALKERS = (1, 2, 5, 10)


def run_parallel_ablation(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """Fixed-k parallel probing: probes vs response time."""
    cells = {
        k: Cell.at(
            profile,
            SystemParams(network_size=profile.reference_size),
            ProtocolParams(parallel_probes=k),
            0xAB1,
        )
        for k in PARALLEL_WALKERS
    }
    metrics = {
        "Probes/Query": "probes_per_query",
        "Unsatisfied": "unsatisfied_rate",
        "MeanResponse(s)": lambda reports: mean([
            r.mean_response_time
            for r in reports
            if r.mean_response_time is not None
        ]),
    }
    return grid_table(
        "ablation-parallel",
        "k-parallel probing: probes vs response time",
        ("k",),
        run_sweep(cells, metrics, executor),
        notes="probes grow by <= ~k-1; response time shrinks ~k-fold",
    )


def run_backoff_ablation(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """The DoBackoff flag under tight capacity and the MR stack."""
    cells = {
        do_backoff: Cell.at(
            profile,
            SystemParams(
                network_size=profile.reference_size,
                max_probes_per_second=2,
            ),
            ProtocolParams.all_same_policy("MR", do_backoff=do_backoff),
            0xAB2,
        )
        for do_backoff in (False, True)
    }
    metrics = {
        "Probes/Query": "probes_per_query",
        "Refused/Query": "refused_probes_per_query",
        "Unsatisfied": "unsatisfied_rate",
    }
    return grid_table(
        "ablation-backoff",
        "DoBackoff under tight capacity (MR policies)",
        ("DoBackoff",),
        run_sweep(cells, metrics, executor),
        notes=(
            "evict-on-refusal (DoBackoff=No) sheds hotspot load; keeping "
            "entries (Yes) re-probes overloaded peers"
        ),
    )


def _build_static_network(n: int, seed: int):
    """A static (no churn) network whose content follows the workload."""
    rng = random.Random(seed)
    view = PopulationView.synthesize(n, rng)
    protocol = ProtocolParams(cache_size=n)
    transport = Transport()

    # Local import avoids a cycle: the test helpers build peers the same
    # way, but the library needs its own constructor here.
    from repro.core.peer import GuessPeer
    from repro.core.policies import PolicySet

    def build_peer(address, library, num_files):
        return GuessPeer(
            address,
            num_files=num_files,
            library=library,
            birth_time=0.0,
            death_time=1e12,
            protocol=protocol,
            policies=PolicySet.from_protocol(protocol),
            max_probes_per_second=None,
            policy_rng=random.Random(address),
            intro_rng=random.Random(address + 1),
        )

    querier = build_peer(0, frozenset(), 0)
    transport.register(0, querier)
    for index, library in enumerate(view.libraries, start=1):
        peer = build_peer(index, library, len(library))
        transport.register(index, peer)
        querier.link_cache.insert(
            CacheEntry(address=index, num_files=len(library)),
            querier.policies.replacement, querier._policy_rng,
        )
    targets = view.draw_query_targets(rng, 150)
    return querier, transport, targets


def run_adaptive_search_ablation(profile: Profile) -> ExperimentResult:
    """Serial vs fixed-k vs adaptive probing on a static network."""
    querier, transport, targets = _build_static_network(
        profile.reference_size, seed=0xADA
    )
    rng = random.Random(1)

    modes = {
        "serial (k=1)": lambda target, now: execute_query(
            querier, target, transport, now, rng=rng
        ),
        "fixed k=10": lambda target, now: execute_query(
            querier, target, transport, now, rng=rng,
            width=EscalatingWidth(10, ceiling=10),
        ),
        "adaptive": lambda target, now: execute_adaptive_query(
            querier, target, transport, now, rng=rng,
            initial_walkers=1, escalation_period=3, max_walkers=32,
        ),
    }

    rows = []
    now = 0.0
    for label, run_one in modes.items():
        probes: List[float] = []
        responses: List[float] = []
        for target in targets:
            result = run_one(target, now)
            now += max(result.duration, 1.0)
            probes.append(float(result.probes))
            if result.response_time is not None:
                responses.append(result.response_time)
        rows.append(
            (
                label,
                mean(probes),
                mean(responses) if responses else 0.0,
                quantile(responses, 0.95) if responses else 0.0,
            )
        )
    return ExperimentResult(
        experiment_id="ablation-adaptive-search",
        title="Probing discipline: probes vs response time (static network)",
        columns=("Mode", "Probes/Query", "MeanResponse(s)", "p95Response(s)"),
        rows=tuple(rows),
        notes=(
            "adaptive ~matches serial probe cost on popular items while "
            "cutting tail response time toward the fixed-k level"
        ),
    )


def run_detection_ablation(profile: Profile) -> ExperimentResult:
    """Pong-provenance defense vs the colluding attack (MR stack)."""
    # Poisoning accumulates over time; a fixed 700s exposure shows the
    # collapse regardless of the profile's duration.
    warmup, duration = 200.0, 700.0
    system = SystemParams(
        network_size=300,
        percent_bad_peers=20.0,
        bad_pong_behavior=BadPongBehavior.BAD,
    )
    protocol = ProtocolParams.all_same_policy("MR", cache_size=30)
    rows = []
    for defended in (False, True):
        reports = []
        for trial in range(profile.trials):
            sim = GuessSimulation(
                system,
                protocol,
                seed=derive_seed(0xDEF, f"trial:{trial}"),
                warmup=warmup,
            )
            if defended:
                install_defense(sim, DefenseConfig(min_observations=5))
            sim.run(warmup + duration)
            reports.append(sim.report())
        rows.append(
            (
                defended,
                mean([r.probes_per_query for r in reports]),
                mean([r.unsatisfied_rate for r in reports]),
                mean([r.mean_good_entries for r in reports]),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-detection",
        title="Pong-provenance defense vs 20% colluding attackers (MR stack)",
        columns=("Defended", "Probes/Query", "Unsatisfied", "Good entries"),
        rows=tuple(rows),
        notes="defense restores most of the satisfaction MR loses to collusion",
    )


def run_selfish_ablation(profile: Profile) -> ExperimentResult:
    """Selfish minority with/without probe payments (§3.3).

    Three scenarios: no selfish peers; 20% selfish with unlimited
    probing; 20% selfish paying per probe from a token-bucket budget.
    The honest columns come from the base report (selfish queries are
    accounted separately), so the damage to protocol-abiding peers is
    read straight off.
    """
    from repro.extensions.selfish import ProbeBudget
    from repro.extensions.selfish_sim import SelfishGuessSimulation

    scenarios = (
        ("honest network", 0.0, None),
        ("20% selfish, free probes", 20.0, None),
        (
            "20% selfish, paying",
            20.0,
            lambda: ProbeBudget(refill_rate=0.2, capacity=30),
        ),
    )
    rows = []
    for label, percent, budget_factory in scenarios:
        sim = SelfishGuessSimulation(
            SystemParams(
                network_size=profile.reference_size,
                max_probes_per_second=20,
            ),
            ProtocolParams(cache_size=50),
            seed=derive_seed(0x5E1F, label),
            warmup=profile.warmup,
            percent_selfish=percent,
            budget_factory=budget_factory,
        )
        sim.run(profile.warmup + profile.duration)
        honest = sim.report()
        selfish = sim.selfish_report()
        rows.append(
            (
                label,
                honest.unsatisfied_rate,
                honest.refused_probes_per_query,
                selfish.probes_per_query,
                (
                    selfish.mean_response_time
                    if selfish.mean_response_time is not None
                    else 0.0
                ),
            )
        )
    return ExperimentResult(
        experiment_id="ablation-selfish",
        title="Selfish peers vs probe payments (honest-peer impact)",
        columns=(
            "Scenario",
            "Honest unsat",
            "Honest refused/query",
            "Selfish probes/query",
            "Selfish response(s)",
        ),
        rows=tuple(rows),
        notes=(
            "free-probing cheats blast orders of magnitude more probes and "
            "push refusals onto honest peers; payments cap the blast"
        ),
    )


#: PongSize values swept by the pong-size ablation.
PONG_SIZES = (0, 1, 5, 10)

#: IntroProb values swept by the introduction ablation.
INTRO_PROBS = (0.0, 0.1, 0.5)


def run_pong_size_ablation(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """PongSize: how much entry-sharing does search need?

    PongSize drives both the query cache (how far one query can chain
    beyond the link cache) and maintenance gossip.  The paper fixes it
    at 5; this ablation shows the cliff at 0 (no sharing: a query is
    limited to the link cache, so satisfaction drops) and the
    diminishing returns beyond a handful of entries.
    """
    cells = {
        pong_size: Cell.at(
            profile,
            SystemParams(network_size=profile.reference_size),
            ProtocolParams(pong_size=pong_size),
            0xAB3 + pong_size,
        )
        for pong_size in PONG_SIZES
    }
    metrics = {
        "Probes/Query": "probes_per_query",
        "Unsatisfied": "unsatisfied_rate",
        "FractionLive": "mean_fraction_live",
    }
    return grid_table(
        "ablation-pongsize",
        "PongSize: entry sharing vs search reach",
        ("PongSize",),
        run_sweep(cells, metrics, executor),
        notes=(
            "PongSize 0 cripples satisfaction (no query-cache chaining); "
            "returns diminish past a handful of shared entries"
        ),
    )


def run_intro_prob_ablation(
    profile: Profile, executor: TrialExecutor | None = None
) -> ExperimentResult:
    """IntroProb: how much introduction does the network need?

    Introduction is how newcomers enter other peers' caches (§2.2).
    The paper fixes the probability at 0.1 and warns that 1.0 would be
    a poisoning hazard; this ablation measures the search-side effect
    of turning it off or up.
    """
    cells = {
        intro_prob: Cell.at(
            profile,
            SystemParams(
                network_size=profile.reference_size,
                lifespan_multiplier=0.3,  # churn makes introduction matter
            ),
            ProtocolParams(intro_prob=intro_prob),
            0xAB4 + int(intro_prob * 100),
        )
        for intro_prob in INTRO_PROBS
    }
    metrics = {
        "Probes/Query": "probes_per_query",
        "Unsatisfied": "unsatisfied_rate",
        "CacheFill": "mean_cache_fill",
    }
    return grid_table(
        "ablation-introprob",
        "IntroProb: introduction rate vs cache population under churn",
        ("IntroProb",),
        run_sweep(cells, metrics, executor),
        notes=(
            "introduction keeps caches populated under churn; the network "
            "functions across the sweep (pong sharing is the main channel)"
        ),
    )


def run_suite(
    profile: Profile, executor: TrialExecutor | None = None
) -> List[ExperimentResult]:
    """All seven ablations.

    The adaptive-search, detection, and selfish ablations are not
    ``TrialSpec``s yet: adaptive-search drives ``execute_query`` directly
    on a static network (its three rows differ only in the ``width=``
    rule), detection installs its defense on a built simulation and
    selfish is a ``GuessSimulation`` subclass, so they always run
    in-process and outside the manifest; the other four are sweeps
    dispatched on ``executor``.
    """
    return [
        run_parallel_ablation(profile, executor),
        run_backoff_ablation(profile, executor),
        run_adaptive_search_ablation(profile),
        run_detection_ablation(profile),
        run_selfish_ablation(profile),
        run_pong_size_ablation(profile, executor),
        run_intro_prob_ablation(profile, executor),
    ]
