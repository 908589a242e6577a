"""Declarative fault plans.

A :class:`FaultPlan` describes every way the modelled UDP network may
misbehave during a run:

* **independent loss** — each probe round trip is lost with a fixed
  probability (``loss_rate``);
* **burst loss** — a two-state Gilbert-Elliott channel
  (:class:`GilbertElliott`): the chain sits in a *good* or *bad* state
  with per-state loss probabilities, so losses cluster the way radio
  fades and queue overflows cluster in real networks;
* **brownouts** — transient stalls (:class:`BrownoutSpec`): a live
  endpoint simply stops answering for a window, indistinguishable from
  death to the prober (the regime that wrongly evicts live entries);
* **partitions** — timed address-set bipartitions
  (:class:`PartitionWindow`): during the window, probes crossing the cut
  are dropped in both directions.

Plans are frozen, hashable, and picklable, so they travel inside
:class:`~repro.experiments.executor.TrialSpec` records to worker
processes.  A plan only *describes* faults; the runtime machinery (RNG
substreams, the Gilbert-Elliott chain state, memoised brownout windows)
lives in :class:`~repro.faults.injector.FaultInjector`.

The all-zeros plan (:meth:`FaultPlan.is_noop` true) is contractually a
no-op: :meth:`FaultInjector.from_plan` returns ``None`` for it, the
transport takes the exact pre-fault code path, and the golden trace
digests pinned in ``tests/integration/test_determinism.py`` stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss channel (Gilbert-Elliott model).

    The chain steps once per probe: from *good* it moves to *bad* with
    probability ``p_good_to_bad``, from *bad* back to *good* with
    ``p_bad_to_good``; the probe is then lost with the loss probability
    of the state the chain landed in.

    Attributes:
        loss_good: loss probability while the channel is good.
        loss_bad: loss probability while the channel is bad.
        p_good_to_bad: per-probe transition probability good -> bad.
        p_bad_to_good: per-probe transition probability bad -> good.
    """

    loss_good: float = 0.0
    loss_bad: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)
        _check_probability("p_good_to_bad", self.p_good_to_bad)
        _check_probability("p_bad_to_good", self.p_bad_to_good)

    @property
    def enabled(self) -> bool:
        """True if the chain can ever lose a probe."""
        if self.loss_good > 0.0:
            return True
        return self.loss_bad > 0.0 and self.p_good_to_bad > 0.0


@dataclass(frozen=True)
class BrownoutSpec:
    """Transient per-peer stalls: live endpoints that stop answering.

    Every address gets its own deterministic schedule of stall windows,
    derived from the fault seed and the address alone (probe order can
    never change a schedule).  Gaps between windows are exponential with
    mean ``1 / rate``; each window lasts exactly ``duration`` seconds.
    While an address is browned out, probes *to* it time out even though
    ``is_alive`` is true — the prober cannot tell a stall from a death.

    Attributes:
        rate: expected brownout onsets per peer per second (0 disables).
        duration: seconds each brownout lasts.
    """

    rate: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise ConfigError(f"rate must be >= 0, got {self.rate}")
        if self.duration < 0.0:
            raise ConfigError(f"duration must be >= 0, got {self.duration}")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0 and self.duration > 0.0


@dataclass(frozen=True)
class PartitionWindow:
    """A timed network bipartition.

    During ``[start, end)`` the address space is split in two sides; any
    probe whose source and destination land on different sides is
    dropped (both directions — the cut is symmetric).  Side assignment
    is a pure hash of ``(salt, address)``: an address keeps its side for
    the window's whole lifetime and across repeated runs, and no RNG
    state is consumed checking it.

    Attributes:
        start: window start (inclusive), simulation seconds.
        end: window end (exclusive).
        fraction: expected fraction of addresses on the minority side.
        salt: hash salt; two windows with different salts cut the
            network differently.
    """

    start: float
    end: float
    fraction: float = 0.5
    salt: int = 0

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ConfigError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigError(
                f"end {self.end} must exceed start {self.start}"
            )
        _check_probability("fraction", self.fraction)

    def covers(self, time: float) -> bool:
        """Whether ``time`` falls inside this window."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class FaultPlan:
    """The full fault configuration for one run.

    Attributes:
        loss_rate: independent per-probe loss probability.
        burst: Gilbert-Elliott burst-loss channel (all-zeros = off).
        jitter: maximum extra round-trip latency, drawn uniformly from
            ``[0, jitter]`` per delivered probe.  Jitter only reprices
            RTTs (response-time accounting); it never drops probes.
        brownouts: transient per-peer stall model.
        partitions: timed bipartition windows.
    """

    loss_rate: float = 0.0
    burst: GilbertElliott = GilbertElliott()
    jitter: float = 0.0
    brownouts: BrownoutSpec = BrownoutSpec()
    partitions: Tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        _check_probability("loss_rate", self.loss_rate)
        if self.jitter < 0.0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if not isinstance(self.partitions, tuple):
            # Lists are a footgun: they break hashing and pickling
            # round-trips of frozen specs.
            raise ConfigError(
                f"partitions must be a tuple, got {type(self.partitions).__name__}"
            )

    def is_noop(self) -> bool:
        """True if this plan can never alter any probe or RTT.

        A no-op plan is contractually invisible: the simulation builds
        no injector, draws no fault randomness, and reproduces the
        fault-free trace digest bit-for-bit.
        """
        return (
            self.loss_rate == 0.0
            and not self.burst.enabled
            and self.jitter == 0.0
            and not self.brownouts.enabled
            and not self.partitions
        )
