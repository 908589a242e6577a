"""Probe retries.

Over a lossy network a timeout no longer implies a dead peer, so a
probe (:meth:`repro.core.peer.GuessPeer.probe_entry`) may be re-sent
before the target is concluded gone.  This module supplies the pieces:

* :class:`RetryPolicy` — how many attempts, and the gap between them
  (built from :class:`~repro.core.params.ProtocolParams`: the
  ``probe_retries`` knob, and one ``probe_spacing`` per gap, so retried
  probes stay on the spec's serial grid);
* :func:`probe_with_retry` — drive one logical probe through the
  transport, re-sending on timeout, with every attempt charged against
  virtual probe timestamps and the final outcome's RTT accumulating the
  full wait (failed-attempt timeouts + gaps + final round trip).

With ``max_attempts == 1`` (the default, ``probe_retries = 0``) the
helper forwards a single :meth:`Transport.probe` call and returns its
outcome object untouched — the no-retry configuration is bit-identical
to the pre-retry code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.errors import ConfigError
from repro.network.address import Address
from repro.network.transport import ProbeOutcome, ProbeStatus, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import ProtocolParams
    from repro.resilience.budget import RetryBudget


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and gap for one logical probe.

    Attributes:
        max_attempts: total sends allowed (1 = no retries).
        gap: seconds waited after each timeout before re-sending (on top
            of the timeout itself).
    """

    max_attempts: int = 1
    gap: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        # Written so that NaN fails: every retried send has a finite time.
        if not 0.0 <= self.gap < math.inf:
            raise ConfigError(f"gap must be finite and >= 0, got {self.gap}")

    @property
    def enabled(self) -> bool:
        """True if this policy can ever re-send a probe."""
        return self.max_attempts > 1

    @classmethod
    def from_protocol(cls, protocol: "ProtocolParams") -> "RetryPolicy":
        """``probe_retries + 1`` attempts, one ``probe_spacing`` apart.

        A retry waits exactly one more probe slot, which keeps retried
        timestamps on the spec's serial grid.
        """
        return cls(protocol.probe_retries + 1, protocol.probe_spacing)


class RetriedProbe(NamedTuple):
    """One logical probe's final fate after up to ``max_attempts`` sends.

    Attributes:
        outcome: the final attempt's outcome.  Its ``rtt`` accumulates
            the *whole* wait from first send to resolution: every failed
            attempt's timeout charge, every gap, and the final
            attempt's own RTT (or timeout charge) — so response-time
            accounting sees the true cost of retrying.
        attempts: sends actually made (1 = no retry was needed/allowed).
        recovered: True if at least one attempt timed out but the final
            outcome did not — the probe a retry "bought back".
        delay: virtual seconds between the first and final send (0
            without retries); the amount by which a caller's probe
            schedule slips.
        denied: True if the retry schedule was cut short because the
            caller's :class:`~repro.resilience.budget.RetryBudget` was
            out of tokens — the probe resolved with its last *afforded*
            outcome.
    """

    outcome: ProbeOutcome
    attempts: int
    recovered: bool
    delay: float
    denied: bool = False

    @property
    def retries(self) -> int:
        """Extra sends beyond the first."""
        return self.attempts - 1


def probe_with_retry(
    transport: Transport,
    retry: RetryPolicy,
    src: Address,
    dst: Address,
    message: Any,
    time: float,
    budget: "Optional[RetryBudget]" = None,
) -> RetriedProbe:
    """Send ``message`` with up to ``retry.max_attempts`` attempts.

    Attempt *i* goes out only after the previous attempt's timeout has
    elapsed plus the policy's gap, at virtual time
    ``time + delay_i`` — retried probes are later probes, so target-side
    liveness and capacity windows see honest timestamps.

    When the caller carries a retry ``budget``, each re-send first spends
    one token (charged at the re-send's virtual timestamp); an exhausted
    budget ends the schedule early with ``denied=True``, capping retry
    amplification during storms.  With ``budget=None`` the code path is
    bit-identical to the unbudgeted helper.
    """
    outcome = transport.probe(src, dst, message, time)
    if outcome.status is not ProbeStatus.TIMEOUT or not retry.enabled:
        return RetriedProbe(outcome, 1, False, 0.0)
    attempts, delay, denied = 1, 0.0, False
    while attempts < retry.max_attempts:
        next_delay = delay + outcome.rtt + retry.gap
        if budget is not None and not budget.try_spend(time + next_delay):
            denied = True
            break
        delay = next_delay
        outcome = transport.probe(src, dst, message, time + delay)
        attempts += 1
        if outcome.status is not ProbeStatus.TIMEOUT:
            break
    recovered = outcome.status is not ProbeStatus.TIMEOUT
    final = outcome._replace(rtt=delay + outcome.rtt)
    return RetriedProbe(final, attempts, recovered, delay, denied)
