"""Declarative fault plans.

A :class:`FaultPlan` describes how the modelled UDP network misbehaves
during a run: each probe round trip to a live endpoint is lost with a
fixed, independent probability (``loss_rate``).  A lost probe times out
exactly as a probe to a dead peer does, which is the regime that lets
retries (``ProtocolParams.probe_retries``) buy anything back.

Plans are frozen, hashable, and picklable, so they travel inside
:class:`~repro.experiments.executor.TrialSpec` records to worker
processes.  A plan only *describes* faults; the runtime coin lives in
:class:`~repro.faults.injector.FaultInjector`.

The zero plan (:meth:`FaultPlan.is_noop` true) is contractually a
no-op: :meth:`FaultInjector.from_plan` returns ``None`` for it, the
transport takes the exact pre-fault code path, and the golden trace
digests pinned in ``tests/integration/test_determinism.py`` stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class FaultPlan:
    """The fault configuration for one run.

    Attributes:
        loss_rate: independent per-probe loss probability.
    """

    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigError(f"loss_rate must be in [0, 1], got {self.loss_rate}")

    def is_noop(self) -> bool:
        """True if this plan can never drop a probe.

        A no-op plan is contractually invisible: the simulation builds
        no injector, draws no fault randomness, and reproduces the
        fault-free trace digest bit-for-bit.
        """
        return self.loss_rate == 0.0
