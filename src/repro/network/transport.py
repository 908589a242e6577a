"""UDP-like probe transport.

GUESS communicates over UDP (paper Section 2.1): there are no connections,
so a peer cannot tell that a cache entry is dead except by probing it and
timing out.  The transport models exactly that:

* probes to an address whose endpoint is gone (or dead at the probe's
  virtual timestamp) **time out** — the sender learns nothing except the
  absence of a reply;
* probes to live endpoints are handed to the endpoint, which may answer or
  explicitly **refuse** (the overload signal of Section 6.3);
* a delivered or refused probe costs one fixed round trip, a quarter of
  the timeout, for response-time accounting.

The transport is synchronous: the GUESS query loop is strictly serial (one
probe, then reply-or-timeout, then the next probe), so a function call that
returns the outcome models the protocol faithfully while keeping the event
count per query at one.

An optional :class:`~repro.faults.injector.FaultInjector` makes the wire
itself unreliable: probes to *live* endpoints may be dropped (packet
loss).  A fault-dropped probe to a live endpoint is a **spurious
timeout** — indistinguishable from a death to the prober, but flagged on
the outcome so omniscient metrics can separate wrongful evictions from
real corpse collection.  Without an injector the probe path is exactly
the historical fault-free code, bit for bit.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Protocol

from repro.network.address import Address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class ProbeStatus(enum.Enum):
    """Terminal status of a single probe."""

    DELIVERED = "delivered"
    """The target was alive and returned a response payload."""

    TIMEOUT = "timeout"
    """No endpoint answered: the target is dead or was never registered."""

    REFUSED = "refused"
    """The target was alive but over its capacity limit and said so."""


class ProbeOutcome(NamedTuple):
    """Result of one probe (a named tuple: one is built per probe).

    RTT charging rules (both deliberate, and asserted by the transport
    tests):

    * **Timeouts are charged the full timeout period** — the sender
      learns nothing until it has waited the whole window, so that wait
      is the probe's true cost.
    * **Refusals are charged the round trip**, exactly like a delivered
      probe: a refusal is a real reply from a live peer (the
      overload notice travels the same round trip as a pong would), so
      the sender pays the wire time even though it gets no entries back.

    Attributes:
        status: terminal status.
        response: payload returned by the endpoint (``None`` unless
            :attr:`ProbeStatus.DELIVERED` or a refusal notice).
        rtt: round-trip time in seconds, per the rules above.
        spurious: True only for a :attr:`ProbeStatus.TIMEOUT` caused by
            fault injection against a **live** endpoint — a lost
            packet, not a death.  The protocol
            layers never branch on this (the prober cannot tell); it
            exists purely for omniscient metrics (wrongful-eviction and
            spurious-timeout accounting).
    """

    status: ProbeStatus
    response: Any = None
    rtt: float = 0.0
    spurious: bool = False


class Endpoint(Protocol):
    """What the transport needs from a registered peer."""

    def is_alive(self, time: float) -> bool:
        """Whether the peer is still up at virtual time ``time``."""

    def receive_probe(self, message: Any, time: float) -> tuple[bool, Any]:
        """Handle a probe delivered at ``time``.

        Returns:
            ``(accepted, response)``.  ``accepted=False`` means the peer
            refused the probe (overload); ``response`` may still carry a
            refusal notice.
        """


class Transport:
    """Directory of endpoints plus UDP probe semantics.

    Args:
        timeout: seconds a sender waits before concluding a probe is lost.
            The GUESS spec's inter-probe spacing (0.2 s) is used as the
            default.  A delivered or refused probe costs ``timeout / 4``.
        faults: optional fault injector; when set, probes to live
            endpoints may be dropped (spurious timeouts).  ``None`` (the
            default, and what a zero
            :class:`~repro.faults.plan.FaultPlan` resolves to) keeps the
            exact fault-free code path.
    """

    def __init__(
        self,
        timeout: float = 0.2,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = float(timeout)
        self._rtt = timeout / 4.0
        self._faults = faults
        self._directory: Dict[Address, Endpoint] = {}
        #: address -> virtual time it was unregistered (departed).  Pure
        #: omniscient bookkeeping for the metrics layer's fresh-vs-stale
        #: dead-probe split; never read on any protocol path.
        self._departures: Dict[Address, float] = {}
        #: Wire totals over every probe (queries, pings, retries, warmup
        #: included), read once at report time: timeouts count dead
        #: targets and injected drops, spurious_timeouts the drops alone,
        #: refusals the probes a live endpoint turned away.
        self.probes_sent = 0
        self.timeouts = 0
        self.refusals = 0
        self.spurious_timeouts = 0

    # ------------------------------------------------------------------
    # Directory management
    # ------------------------------------------------------------------

    def register(self, address: Address, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` to ``address``.

        Raises:
            ValueError: if the address is already bound (addresses are
                never reused, so a double bind is always a bug).
        """
        if address in self._directory:
            raise ValueError(f"address {address} already registered")
        self._directory[address] = endpoint

    def unregister(self, address: Address, time: Optional[float] = None) -> None:
        """Detach the endpoint at ``address`` (no-op if absent).

        Dead peers may either be unregistered or left registered with
        ``is_alive`` returning False; both produce timeouts.  When the
        caller supplies the departure ``time``, it is remembered so
        metrics can classify later dead probes against this address as
        stale (pointer acquired before the death) or dead-on-arrival.
        """
        if self._directory.pop(address, None) is not None and time is not None:
            self._departures[address] = time

    def departure_time(self, address: Address) -> Optional[float]:
        """When ``address`` was unregistered, or None (live / never seen).

        Omniscient-observer data: the protocol layers never branch on
        it — only dead-probe accounting does.
        """
        return self._departures.get(address)

    def __len__(self) -> int:
        return len(self._directory)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe(
        self, src: Address, dst: Address, message: Any, time: float
    ) -> ProbeOutcome:
        """Send ``message`` from ``src`` to ``dst`` at virtual time ``time``.

        Returns:
            A :class:`ProbeOutcome`; timeouts carry ``rtt == timeout``,
            refusals and deliveries ``timeout / 4``.
        """
        self.probes_sent += 1
        endpoint = self._directory.get(dst)
        if endpoint is None or not endpoint.is_alive(time):
            # Dead targets never consume fault randomness: the outcome is
            # a timeout either way, and skipping the draw keeps fault
            # streams a pure function of the live-probe sequence.
            self.timeouts += 1
            return ProbeOutcome(ProbeStatus.TIMEOUT, None, self.timeout)
        if self._faults is not None and self._faults.should_drop(src, dst, time):
            self.timeouts += 1
            self.spurious_timeouts += 1
            return ProbeOutcome(ProbeStatus.TIMEOUT, None, self.timeout, True)
        accepted, response = endpoint.receive_probe(message, time)
        if not accepted:
            self.refusals += 1
            return ProbeOutcome(ProbeStatus.REFUSED, response, self._rtt)
        return ProbeOutcome(ProbeStatus.DELIVERED, response, self._rtt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transport(endpoints={len(self._directory)}, "
            f"probes={self.probes_sent}, timeouts={self.timeouts}, "
            f"refusals={self.refusals})"
        )
