"""Correlated failure scenarios: churn storms and flash crowds.

The fault layer (:mod:`repro.faults`) models *independent* network
misbehaviour — each probe is lost or delayed on its own.  What kills
real overlays is correlated trouble: a **churn storm** (a large fraction
of the population departs almost simultaneously, leaving every link
cache full of corpses) and a **flash crowd** (a query-rate surge that
concentrates load on well-known peers until they refuse probes).  This
module supplies the declarative plans and the runtime driver for both:

* :class:`ChurnStorm` — a window ``[start, start + width)`` during which
  a fraction ``f`` of the peers live at ``start`` is forced to depart,
  at per-victim times drawn uniformly inside the window;
* :class:`FlashCrowd` — a window ``[start, end)`` during which the
  query-burst arrival intensity is multiplied by ``multiplier`` (values
  below 1 model query droughts);
* :class:`ScenarioPlan` — the frozen, hashable, picklable composition
  that travels inside :class:`~repro.experiments.executor.TrialSpec`
  records to worker processes;
* :class:`ScenarioDriver` — the runtime state.  Mirroring
  :meth:`FaultInjector.from_plan`, :meth:`ScenarioDriver.from_plan`
  returns ``None`` for a missing or all-noop plan, so the simulation's
  hot paths carry no scenario branches at all and the golden trace
  digests stay bit-identical (the invisibility contract, pinned by
  ``tests/integration/test_determinism.py``).

Determinism: every scenario draw — storm victim selection and departure
offsets — comes from the dedicated ``scenario:churn`` RNG substream, so
enabling a storm can never perturb the protocol's own streams; the
effect-contract lint proves this statically (RD007 over
``repro.resilience``).  Flash-crowd warping consumes **no** randomness:
it deterministically re-times the burst delays the workload already
drew, via the standard inhomogeneous-Poisson time change (a delay drawn
as exponential "load" is spent against the piecewise-constant intensity
profile the crowd windows describe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ScenarioError
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ChurnStorm:
    """Mass departure: fraction ``f`` of live peers dies in a window.

    At ``start`` the driver samples ``round(fraction * live)`` victims
    from the then-live population and assigns each a departure time
    uniform in ``[start, start + width)``.  Victims depart through the
    ordinary death path (silent departure, same-instant replacement), so
    the population size invariant holds — the damage is *staleness*:
    every replacement is a newborn whose copied cache points at the
    storm's corpses.

    Attributes:
        start: storm onset, simulation seconds.
        width: seconds over which the departures spread (> 0, finite).
        fraction: fraction of the live population that departs.
    """

    start: float
    width: float
    fraction: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 <= self.start < math.inf:
            raise ScenarioError(f"start must be >= 0 and finite, got {self.start}")
        if not 0.0 < self.width < math.inf:
            raise ScenarioError(f"width must be > 0 and finite, got {self.width}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ScenarioError(
                f"fraction must be in [0, 1], got {self.fraction}"
            )

    @property
    def enabled(self) -> bool:
        """True if this storm can ever kill a peer."""
        return self.fraction > 0.0


@dataclass(frozen=True)
class FlashCrowd:
    """Query-arrival surge: intensity × ``multiplier`` on a window.

    Attributes:
        start: window start (inclusive), simulation seconds.
        end: window end (exclusive, finite); must exceed ``start``.
        multiplier: arrival-intensity factor inside the window (> 0 and
            finite; 1.0 is a no-op, values below 1 model droughts).
    """

    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.  An infinite multiplier
        # would re-time every burst in the window to a zero delay, so the
        # run would never leave that instant.
        if not 0.0 <= self.start < math.inf:
            raise ScenarioError(f"start must be >= 0 and finite, got {self.start}")
        if not self.start < self.end < math.inf:
            raise ScenarioError(
                f"end {self.end} must exceed start {self.start} and be finite"
            )
        if not 0.0 < self.multiplier < math.inf:
            raise ScenarioError(
                f"multiplier must be > 0 and finite, got {self.multiplier}"
            )

    @property
    def enabled(self) -> bool:
        """True if this window changes the arrival intensity at all."""
        return self.multiplier != 1.0


@dataclass(frozen=True)
class ScenarioPlan:
    """The full correlated-scenario configuration for one run.

    Attributes:
        storms: churn-storm windows (any order).
        crowds: flash-crowd windows; *enabled* crowds must not overlap
            (overlap would make the intensity profile ambiguous).
    """

    storms: Tuple[ChurnStorm, ...] = ()
    crowds: Tuple[FlashCrowd, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.storms, tuple):
            # Lists are a footgun: they break hashing and pickling
            # round-trips of frozen specs.
            raise ScenarioError(
                f"storms must be a tuple, got {type(self.storms).__name__}"
            )
        if not isinstance(self.crowds, tuple):
            raise ScenarioError(
                f"crowds must be a tuple, got {type(self.crowds).__name__}"
            )
        active = sorted(
            (c for c in self.crowds if c.enabled), key=lambda c: c.start
        )
        for left, right in zip(active, active[1:]):
            if right.start < left.end:
                raise ScenarioError(
                    f"flash-crowd windows overlap: [{left.start}, {left.end})"
                    f" and [{right.start}, {right.end})"
                )

    def is_noop(self) -> bool:
        """True if this plan can never alter the run.

        A no-op plan is contractually invisible: the simulation builds
        no driver, draws no scenario randomness, schedules no storm
        events, and reproduces the scenario-free trace digest
        bit-for-bit.
        """
        return not any(s.enabled for s in self.storms) and not any(
            c.enabled for c in self.crowds
        )


class ScenarioDriver:
    """Runtime scenario state for one simulation.

    Built only for plans that can actually change the run; the
    :meth:`from_plan` gate returns ``None`` otherwise, mirroring
    :meth:`~repro.faults.injector.FaultInjector.from_plan`.
    """

    __slots__ = ("plan", "storms", "_crowds", "_rng")

    def __init__(self, plan: ScenarioPlan, rng: RngRegistry) -> None:
        self.plan = plan
        self.storms: Tuple[ChurnStorm, ...] = tuple(
            s for s in plan.storms if s.enabled
        )
        self._crowds: Tuple[FlashCrowd, ...] = tuple(
            sorted(
                (c for c in plan.crowds if c.enabled), key=lambda c: c.start
            )
        )
        # Literal stream name: the RD007 contract proves the prefix
        # statically, so the call site must spell it out.
        self._rng = rng.stream("scenario:churn")

    @classmethod
    def from_plan(
        cls, plan: Optional[ScenarioPlan], rng: RngRegistry
    ) -> Optional["ScenarioDriver"]:
        """A driver for ``plan``, or ``None`` for a missing/no-op plan."""
        if plan is None or plan.is_noop():
            return None
        return cls(plan, rng)

    # ------------------------------------------------------------------
    # Churn storms
    # ------------------------------------------------------------------

    def draw_departures(
        self, storm: ChurnStorm, live_count: int
    ) -> List[Tuple[int, float]]:
        """Sample one storm's victims from a ``live_count``-peer roster.

        Returns ``(index, offset)`` pairs: ``index`` into the caller's
        live-peer list (whose order is deterministic) and the victim's
        departure offset from the storm start, uniform in
        ``[0, width)``.  All randomness comes from the scenario
        substream; the caller schedules the deaths.
        """
        victims = round(storm.fraction * live_count)
        if victims <= 0:
            return []
        rng = self._rng
        picked = rng.sample(range(live_count), victims)
        return [(index, rng.random() * storm.width) for index in picked]

    # ------------------------------------------------------------------
    # Flash crowds
    # ------------------------------------------------------------------

    def warp_delay(self, now: float, delay: float) -> float:
        """Re-time one burst delay through the crowd intensity profile.

        ``delay`` was drawn as exponential load under baseline intensity
        1; the wall-clock delay returned is the time needed to spend
        that load against the piecewise-constant profile (``multiplier``
        inside enabled crowd windows, 1 elsewhere) — the standard
        inhomogeneous-Poisson time change.  Pure arithmetic, no RNG;
        with no enabled crowds, or a delay that never reaches a window,
        the input delay is returned bit-identically.
        """
        crowds = self._crowds
        if not crowds or delay == float("inf"):
            return delay
        remaining = delay
        wall = 0.0
        t = now
        index = 0
        total = len(crowds)
        while True:
            while index < total and crowds[index].end <= t:
                index += 1
            if index == total:
                # Past every window: baseline intensity forever.
                return wall + remaining
            crowd = crowds[index]
            if t < crowd.start:
                gap = crowd.start - t
                if remaining <= gap:
                    return wall + remaining
                remaining -= gap
                wall += gap
                t = crowd.start
            else:
                span = crowd.end - t
                load = span * crowd.multiplier
                if remaining <= load:
                    return wall + remaining / crowd.multiplier
                remaining -= load
                wall += span
                t = crowd.end
