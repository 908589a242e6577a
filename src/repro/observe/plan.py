"""Observation configuration.

:class:`ObservationPlan` is the frozen, picklable description of what a
simulation should observe.  ``None`` or a plan without spans builds no
recorder, so the host keeps the **exact unobserved code path**;
recording spans must still leave the trace digest and the report
bit-identical: observation never perturbs the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class ObservationPlan:
    """Which observers to attach to a :class:`GuessSimulation`.

    Attributes:
        spans: record per-query :class:`~repro.observe.spans.QuerySpan`
            lifecycles.
        span_capacity: ring size for retained spans (None = unbounded).
    """

    spans: bool = False
    span_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.span_capacity is not None and self.span_capacity < 1:
            raise ConfigError(
                f"span_capacity must be >= 1, got {self.span_capacity}"
            )
