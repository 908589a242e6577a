"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller embedding the simulator can catch one base class.  Subclasses are
deliberately fine-grained because they fail in different phases of a run
and callers often want to handle them differently:

* **configuration time** — :class:`ConfigError`: a parameter is outside
  its valid domain; raised before any simulation time is spent.
* **simulation time** — :class:`SimulationError` (event-engine misuse),
  :class:`PolicyError` (unknown policy name), :class:`TopologyError`
  (invalid overlay operation), :class:`WorkloadError` (impossible
  workload model).
* **execution time** — :class:`ExecutionError`: the *harness* around the
  simulation failed (a worker process crashed, a watchdog fired, a sweep
  was interrupted) even though the configuration and simulation logic
  were sound.

:class:`TrialFailure` is not an exception but the picklable *record* of a
trial that exhausted every retry under supervised execution; it stands in
for the missing :class:`~repro.metrics.collectors.SimulationReport` in a
batch's results so sibling trials survive.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigError(ReproError, ValueError):
    """A system or protocol parameter is out of its valid domain.

    Raised eagerly at construction time (``SystemParams`` /
    ``ProtocolParams`` validation) so that a bad sweep fails before any
    simulation time is spent.
    """


class ScenarioError(ConfigError):
    """A resilience scenario plan is malformed.

    Raised eagerly at plan-construction time by the frozen specs in
    :mod:`repro.resilience.scenarios`: a churn-storm fraction outside
    ``[0, 1]``, a non-positive window width, a flash-crowd window whose
    end does not exceed its start, or overlapping enabled crowd windows
    (which would make the arrival intensity ambiguous).
    """


class FreshnessError(ConfigError):
    """A cache-freshness plan is malformed.

    Raised eagerly at plan-construction time by the frozen specs in
    :mod:`repro.freshness.plan`: a negative notification budget or
    propagation depth, a non-positive notification delay, an unknown
    :class:`~repro.freshness.plan.CacheSizing` policy name, or sizing
    bounds that leave no admissible capacity.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been exhausted, or re-entrant calls to ``run``.
    """


class PolicyError(ReproError, KeyError):
    """An unknown policy name was requested from the policy registry."""


class TopologyError(ReproError, RuntimeError):
    """An overlay/graph operation was applied to an invalid structure."""


class WorkloadError(ReproError, ValueError):
    """A workload model was configured with impossible parameters."""


class ExecutionError(ReproError, RuntimeError):
    """The execution harness failed around an otherwise valid simulation.

    Raised by the trial executors and the supervisor for faults of the
    *machinery*: a worker pool that cannot be (re)spawned, a checkpoint
    journal that does not match its manifest, or a sweep interrupted
    before completion.  Distinct from :class:`SimulationError`, which
    means the simulation itself was driven incorrectly.
    """


@dataclass(frozen=True)
class TrialFailure:
    """Picklable record of a trial that exhausted every retry.

    Supervised execution quarantines a trial after ``max_attempts``
    failed attempts instead of aborting the batch; this record takes the
    report's slot in the (spec-ordered) results so downstream code can
    see exactly which trial failed, how hard it was retried, and why.

    Attributes:
        index: position of the trial in its batch (spec order).
        attempts: number of attempts that were made before quarantine.
        error: ``repr`` of the last exception (or a watchdog/timeout
            description) — a string so the record pickles everywhere.
        kind: coarse failure class: ``"error"`` (the trial raised),
            ``"crash"`` (its worker process died), or ``"timeout"``
            (the watchdog deadline passed).
    """

    index: int
    attempts: int
    error: str
    kind: str = "error"

    #: Mirrors ``SimulationReport.trace_digest`` so manifest recording can
    #: treat a quarantined slot uniformly (a failed trial has no digest).
    trace_digest = None

    def __str__(self) -> str:
        return (
            f"trial {self.index} quarantined after {self.attempts} "
            f"attempt(s): [{self.kind}] {self.error}"
        )
