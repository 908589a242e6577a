"""A GUESS network with adaptive per-peer PingIntervals.

:class:`AdaptiveMaintenanceSimulation` closes the loop on the §6.1
guidance that :class:`~repro.extensions.adaptive_ping.AdaptivePingController`
implements: every good peer owns a controller, feeds it the outcome of
each maintenance ping, and schedules its *next* ping at the controller's
current interval.  Under heavy churn peers converge to tight intervals
(fresh caches at higher ping cost); in calm networks they relax and
save traffic — without any global coordination, as the paper requires.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.network_sim import GuessSimulation
from repro.core.peer import GuessPeer
from repro.extensions.adaptive_ping import AdaptivePingController
from repro.network.address import Address
from repro.sim.events import EventPriority

ControllerFactory = Callable[[float], AdaptivePingController]


class AdaptiveMaintenanceSimulation(GuessSimulation):
    """GuessSimulation with controller-driven ping scheduling.

    Args:
        controller_factory: builds each peer's controller from the
            protocol's base PingInterval; defaults to the controller's
            own defaults.
        Remaining arguments as for :class:`GuessSimulation`.
    """

    def __init__(
        self,
        *args,
        controller_factory: Optional[ControllerFactory] = None,
        **kwargs,
    ) -> None:
        self._controller_factory = (
            controller_factory or AdaptivePingController
        )
        self._controllers: Dict[Address, AdaptivePingController] = {}
        super().__init__(*args, **kwargs)

    def controller_for(self, address: Address) -> Optional[AdaptivePingController]:
        """The live controller for ``address`` (None for malicious/dead)."""
        return self._controllers.get(address)

    def mean_ping_interval(self) -> float:
        """Average current interval across live controllers (diagnostics)."""
        if not self._controllers:
            return self.protocol.ping_interval
        intervals = [c.interval for c in self._controllers.values()]
        return sum(intervals) / len(intervals)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _peer_spawned(self, peer: GuessPeer) -> None:
        if not peer.malicious:
            self._controllers[peer.address] = self._controller_factory(
                self.protocol.ping_interval
            )

    def _on_death(self, peer):
        self._controllers.pop(peer.address, None)
        super()._on_death(peer)

    # ------------------------------------------------------------------
    # Adaptive ping cycle
    # ------------------------------------------------------------------

    def _ping_cycle(self, peer: GuessPeer) -> None:
        now = self.engine.now
        if not peer.is_alive(now):
            return
        controller = self._controllers.get(peer.address)
        dead = self._do_ping(peer, now)
        if controller is not None and dead is not None:
            controller.observe(dead=dead)
        interval = (
            controller.interval
            if controller is not None
            else self.protocol.ping_interval
        )
        self.engine.schedule_after(
            interval,
            self._ping_cycle,
            priority=EventPriority.PROTOCOL,
            label="adaptive-ping",
            args=(peer,),
        )
