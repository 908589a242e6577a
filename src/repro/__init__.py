"""repro — a reproduction of *Evaluating GUESS and Non-Forwarding
Peer-to-Peer Search* (Yang, Vinograd, Garcia-Molina; ICDCS 2004).

The package builds the paper's entire stack from scratch: a deterministic
discrete-event simulator (:mod:`repro.sim`), a UDP-like network substrate
(:mod:`repro.network`), synthetic Gnutella-calibrated workloads
(:mod:`repro.workload`), the GUESS protocol with its policy framework and
attacker models (:mod:`repro.core`), the forwarding-based baselines the
paper compares against (:mod:`repro.baselines`), and one experiment module
per table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import GuessSimulation, SystemParams, ProtocolParams

    sim = GuessSimulation(
        SystemParams(network_size=500),
        ProtocolParams(query_pong="MFS"),
        seed=7,
    )
    sim.run(1800.0)
    report = sim.report()
    print(f"{report.probes_per_query:.1f} probes/query, "
          f"{report.unsatisfied_rate:.1%} unsatisfied")
"""

from repro.baselines import (
    GossipParams,
    GossipPlan,
    GossipSearch,
    GossipSummary,
)
from repro.core import (
    BadPongBehavior,
    CacheEntry,
    FaultyReporter,
    GuessPeer,
    LinkCache,
    MaliciousPeer,
    PolicySet,
    ProtocolParams,
    QueryCache,
    QueryResult,
    SystemParams,
    execute_query,
    registered_policy_names,
)
from repro.core.network_sim import GuessSimulation
from repro.errors import (
    ConfigError,
    ExecutionError,
    PolicyError,
    ReproError,
    ScenarioError,
    SimulationError,
    TopologyError,
    TrialFailure,
    WorkloadError,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.metrics import LoadDistribution, MetricsCollector, SimulationReport
from repro.resilience import (
    ChurnStorm,
    FlashCrowd,
    ResiliencePolicy,
    ScenarioPlan,
)

__version__ = "1.0.0"

__all__ = [
    "BadPongBehavior",
    "CacheEntry",
    "GuessPeer",
    "GuessSimulation",
    "LinkCache",
    "MaliciousPeer",
    "PolicySet",
    "ProtocolParams",
    "QueryCache",
    "QueryResult",
    "SystemParams",
    "execute_query",
    "registered_policy_names",
    "FaultPlan",
    "FaultyReporter",
    "RetryPolicy",
    "GossipParams",
    "GossipPlan",
    "GossipSearch",
    "GossipSummary",
    "ChurnStorm",
    "FlashCrowd",
    "ResiliencePolicy",
    "ScenarioError",
    "ScenarioPlan",
    "ConfigError",
    "ExecutionError",
    "PolicyError",
    "ReproError",
    "SimulationError",
    "TopologyError",
    "TrialFailure",
    "WorkloadError",
    "LoadDistribution",
    "MetricsCollector",
    "SimulationReport",
    "__version__",
]
