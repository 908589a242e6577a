"""Per-link-cache-entry circuit breakers.

Under ``PongCachePolicy`` with ``do_backoff=False`` the reproduction's
only reaction to a refusal is eviction: a peer that sheds load because
it is *temporarily* overloaded gets dropped from every prober's cache
exactly when the overlay can least afford to forget live addresses.  A
circuit breaker replaces that reflex with the classic three-state
automaton:

* **closed** — probes flow; consecutive refusals are counted.
* **open** — after :data:`FAILURE_THRESHOLD` consecutive refusals the
  breaker opens and the prober *suppresses* probes to that address for
  :data:`COOLDOWN` virtual seconds, keeping the entry cached.
* **half-open** — once the cool-down expires, exactly one trial probe
  is allowed; success closes the breaker, another refusal re-opens it
  for a fresh cool-down.

Everything here is pure bookkeeping over the caller-supplied virtual
clock: breakers draw no randomness, schedule no events, and never touch
wall time — the effect-contract lint (RD006 over this module) proves it
statically.  Breakers react to *refusals* only; timeouts mean the
target is dead and eviction remains the right answer.
"""

from __future__ import annotations

from typing import Dict

#: Breaker states.  Plain string constants (not an Enum) so records and
#: debug output stay trivially picklable and comparable.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive refusals that open a breaker.
FAILURE_THRESHOLD = 3

#: Virtual seconds an open breaker suppresses probes before it allows a
#: half-open trial.
COOLDOWN = 30.0


class CircuitBreaker:
    """One breaker guarding one cached address."""

    __slots__ = ("state", "failures", "open_until")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.open_until = 0.0

    def allow(self, now: float) -> bool:
        """Whether a probe may be sent at virtual time ``now``.

        An open breaker transitions to half-open exactly at
        ``open_until`` (``now >= open_until``, boundary inclusive) and
        admits the single trial probe in the same call.
        """
        if self.state == OPEN:
            if now >= self.open_until:
                self.state = HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        """A probe was answered: close the breaker, forget failures."""
        self.state = CLOSED
        self.failures = 0

    def record_refusal(self, now: float) -> None:
        """A probe was refused: count it, open on the threshold.

        A refusal during half-open re-opens immediately — the trial
        probe failed, so the target gets a fresh cool-down.
        """
        if self.state == HALF_OPEN:
            self.state = OPEN
            self.open_until = now + COOLDOWN
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self.state = OPEN
            self.open_until = now + COOLDOWN


class BreakerBoard:
    """All breakers for one prober, keyed by cached address.

    Breakers are created lazily on the first refusal-or-check for an
    address and discarded when the address leaves the link cache, so
    the board's footprint tracks the cache, not the network.
    """

    __slots__ = ("_breakers",)

    def __init__(self) -> None:
        self._breakers: Dict[int, CircuitBreaker] = {}

    def allow(self, address: int, now: float) -> bool:
        """Whether ``address`` may be probed at ``now``."""
        breaker = self._breakers.get(address)
        if breaker is None:
            return True
        return breaker.allow(now)

    def record_success(self, address: int) -> None:
        """Note a delivered probe; only touches an existing breaker."""
        breaker = self._breakers.get(address)
        if breaker is not None:
            breaker.record_success()

    def record_refusal(self, address: int, now: float) -> None:
        """Note a refusal, creating the breaker on first sight."""
        breaker = self._breakers.get(address)
        if breaker is None:
            breaker = CircuitBreaker()
            self._breakers[address] = breaker
        breaker.record_refusal(now)

    def discard(self, address: int) -> None:
        """Drop state for an address that left the link cache."""
        self._breakers.pop(address, None)

    def state_of(self, address: int) -> str:
        """Current state for ``address`` (closed if never tripped)."""
        breaker = self._breakers.get(address)
        return CLOSED if breaker is None else breaker.state

    def __len__(self) -> int:
        return len(self._breakers)
