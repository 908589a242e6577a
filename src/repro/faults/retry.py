"""Probe retries with backoff.

Over a lossy network a timeout no longer implies a dead peer, so a
probe (:meth:`repro.core.peer.GuessPeer.probe_entry`) may be re-sent
before the target is concluded gone.  This module supplies the pieces:

* :class:`RetryPolicy` — how many attempts, and the fixed/exponential
  backoff schedule between them (configured by the
  ``probe_retries`` / ``retry_backoff`` / ``retry_base`` /
  ``retry_multiplier`` knobs on
  :class:`~repro.core.params.ProtocolParams`);
* :func:`probe_with_retry` — drive one logical probe through the
  transport, re-sending on timeout, with every attempt charged against
  virtual probe timestamps and the final outcome's RTT accumulating the
  full wait (failed-attempt timeouts + backoff gaps + final round trip).

With ``max_attempts == 1`` (the default, ``probe_retries = 0``) the
helper forwards a single :meth:`Transport.probe` call and returns its
outcome object untouched — the no-retry configuration is bit-identical
to the pre-retry code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.network.address import Address
from repro.network.transport import ProbeOutcome, ProbeStatus, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import ProtocolParams
    from repro.resilience.budget import RetryBudget

#: Accepted backoff schedules.
BACKOFF_MODES: Tuple[str, ...] = ("fixed", "exponential")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for one logical probe.

    Attributes:
        max_attempts: total sends allowed (1 = no retries).
        backoff: ``"fixed"`` (every gap is ``base_delay``) or
            ``"exponential"`` (gap *i* is ``base_delay * multiplier**i``).
        base_delay: seconds waited after the first timeout before
            re-sending (on top of the timeout itself).
        multiplier: exponential growth factor (ignored for fixed).
    """

    max_attempts: int = 1
    backoff: str = "fixed"
    base_delay: float = 0.2
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff not in BACKOFF_MODES:
            raise ConfigError(
                f"backoff must be one of {BACKOFF_MODES}, got {self.backoff!r}"
            )
        # Written so that NaN fails: every retried send has a finite time.
        if not 0.0 <= self.base_delay < math.inf:
            raise ConfigError(
                f"base_delay must be finite and >= 0, got {self.base_delay}"
            )
        if not 1.0 <= self.multiplier < math.inf:
            raise ConfigError(
                f"multiplier must be finite and >= 1, got {self.multiplier}"
            )

    @property
    def enabled(self) -> bool:
        """True if this policy can ever re-send a probe."""
        return self.max_attempts > 1

    def delay(self, retry_index: int) -> float:
        """Backoff gap before retry number ``retry_index`` (0-based)."""
        if self.backoff == "fixed":
            return self.base_delay
        return self.base_delay * self.multiplier**retry_index

    @classmethod
    def from_protocol(cls, protocol: "ProtocolParams") -> "RetryPolicy":
        """The policy the protocol knobs describe.

        ``retry_base = None`` defaults the backoff gap to
        ``probe_spacing``: a retry waits exactly one more probe slot,
        which keeps retried timestamps on the spec's serial grid.
        """
        base = (
            protocol.retry_base
            if protocol.retry_base is not None
            else protocol.probe_spacing
        )
        return cls(
            max_attempts=protocol.probe_retries + 1,
            backoff=protocol.retry_backoff,
            base_delay=base,
            multiplier=protocol.retry_multiplier,
        )


class RetriedProbe(NamedTuple):
    """One logical probe's final fate after up to ``max_attempts`` sends.

    Attributes:
        outcome: the final attempt's outcome.  Its ``rtt`` accumulates
            the *whole* wait from first send to resolution: every failed
            attempt's timeout charge, every backoff gap, and the final
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
    elapsed plus the policy's backoff gap, at virtual time
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
        next_delay = delay + outcome.rtt + retry.delay(attempts - 1)
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
