"""Experiment harness: one module per paper table/figure.

Every experiment follows the same contract: ``run_<id>(profile)`` takes a
:class:`~repro.experiments.profiles.Profile` (scale knobs: durations,
network sizes, trial counts) and returns one or more
:class:`~repro.experiments.runner.ExperimentResult` records that render
to the table/series the paper reports; ``run_suite(profile, executor)``
returns a module's whole list (``run_all.SUITES`` is the registry).

========================  ==========================================
``cache_size``            Table 3, Figures 3, 4, 5
``ping_interval``         Figures 6, 7
``flexible_extent``       Figure 8
``policy_comparison``     Figures 9, 10, 11, 12
``fairness``              Figure 13
``capacity``              Figures 14, 15
``malicious``             Figures 16-18 (Dead), 19-21 (colluding)
``ablations``             the seven ``ablation-*`` tables (DESIGN §5)
``packet_loss``           ``loss_grid``, ``loss_satisfaction``
``churn_storm``           ``storm_grid``, ``storm_recovery``
``gossip_search``         ``gossip_compare``, ``gossip_faulty``
``cache_freshness``       ``freshness_grid``, ``freshness_recovery``
========================  ==========================================

Run everything via ``python -m repro.experiments.run_all --profile quick``.
"""

from repro.experiments.executor import (
    ChaosSpec,
    ProcessTrialExecutor,
    SerialTrialExecutor,
    TrialExecutor,
    TrialSpec,
    get_executor,
)
from repro.experiments.profiles import PROFILES, Profile
from repro.experiments.runner import ExperimentResult, run_guess_config
from repro.experiments.supervisor import (
    SupervisedTrialExecutor,
    SweepInterrupted,
    TrialJournal,
    trial_fingerprint,
)

__all__ = [
    "PROFILES",
    "Profile",
    "ExperimentResult",
    "run_guess_config",
    "TrialExecutor",
    "TrialSpec",
    "ChaosSpec",
    "SerialTrialExecutor",
    "ProcessTrialExecutor",
    "SupervisedTrialExecutor",
    "SweepInterrupted",
    "TrialJournal",
    "trial_fingerprint",
    "get_executor",
]
