"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector is the only stateful piece of the fault subsystem.
:meth:`repro.network.transport.Transport.probe` consults
:meth:`FaultInjector.should_drop` on every probe to a live endpoint to
decide whether the round trip is lost.

Determinism contract
--------------------

The loss coin draws from its **own named substream** of the run's
:class:`~repro.sim.rng.RngRegistry` (``fault:loss``), so fault draws
never perturb protocol streams (``policies``, ``queries``, ...) — stream
independence is the registry's core guarantee.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan
from repro.network.address import Address
from repro.sim.rng import RngRegistry


class FaultInjector:
    """Per-run fault state; consulted by the transport on every probe.

    Build via :meth:`from_plan` (which returns ``None`` for no-op plans
    so the transport keeps its exact fault-free code path) rather than
    calling the constructor with a zero plan.

    Args:
        plan: the fault configuration.
        rng: the simulation's stream registry; the injector only ever
            touches the ``fault:loss`` stream.
    """

    def __init__(self, plan: FaultPlan, rng: RngRegistry) -> None:
        self.plan = plan
        self._loss_rng = rng.stream("fault:loss")

    @classmethod
    def from_plan(
        cls, plan: Optional[FaultPlan], rng: RngRegistry
    ) -> Optional["FaultInjector"]:
        """The injector for ``plan``, or None if the plan can do nothing.

        Returning None (not an inert injector) is what makes the zero
        plan contractually invisible: the transport's fault-free branch
        is taken unchanged, with zero extra draws.
        """
        if plan is None or plan.is_noop():
            return None
        return cls(plan, rng)

    def should_drop(self, src: Address, dst: Address, time: float) -> bool:
        """Whether the ``src -> dst`` round trip at ``time`` is lost.

        One independent coin per probe; the endpoints and the time do
        not enter the decision.
        """
        return self._loss_rng.random() < self.plan.loss_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(plan={self.plan!r})"
