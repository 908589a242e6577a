"""A GUESS network with a selfish minority (paper §3.3, quantified).

The paper argues qualitatively that GUESS is easy to game — a selfish
peer "can simply probe thousands of peers at a time", and if everyone
did, "the system might fail as if under a DoS attack" — and proposes
per-probe payments as the deterrent.  :class:`SelfishGuessSimulation`
turns that argument into an experiment:

* a configurable fraction of good peers is *selfish*: they follow the
  protocol in every respect except query execution, where they blast
  every candidate at once (:func:`~repro.extensions.selfish.execute_selfish_query`);
* optionally, every selfish peer carries a
  :class:`~repro.extensions.selfish.ProbeBudget` — the payment scheme —
  capping its probes per unit time;
* metrics split: the base report covers *honest* peers' experience (so
  the damage to the protocol-abiding majority is directly visible), and
  :meth:`selfish_report` summarises what the cheaters got out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.core.network_sim import GuessSimulation
from repro.core.peer import GuessPeer
from repro.core.search import QueryResult
from repro.errors import ConfigError
from repro.extensions.selfish import ProbeBudget, execute_selfish_query
from repro.metrics.summary import ratio
from repro.network.address import Address

BudgetFactory = Callable[[], ProbeBudget]


@dataclass(frozen=True)
class SelfishReport:
    """What the selfish minority experienced.

    Attributes:
        queries: selfish queries executed.
        satisfied: of those, how many were satisfied.
        probes_per_query: average probes each selfish query fired.
        mean_response_time: average response time of satisfied selfish
            queries (near zero without payments — the cheater's payoff).
        broke_queries: queries that could not probe at all because the
            budget was empty (payments biting).
    """

    queries: int
    satisfied: int
    probes_per_query: float
    mean_response_time: Optional[float]
    broke_queries: int


class SelfishGuessSimulation(GuessSimulation):
    """GuessSimulation plus a selfish minority.

    Args:
        percent_selfish: percentage (0-100) of *good* peers that are
            selfish.  (Malicious peers are a separate axis; combining
            both is allowed but not what the paper discusses.)
        budget_factory: when given, every selfish peer gets its own
            :class:`ProbeBudget` from this factory — the payment scheme.
        Remaining arguments as for :class:`GuessSimulation`.
    """

    def __init__(
        self,
        *args,
        percent_selfish: float = 0.0,
        budget_factory: Optional[BudgetFactory] = None,
        **kwargs,
    ) -> None:
        if not 0.0 <= percent_selfish <= 100.0:
            raise ConfigError(
                f"percent_selfish must be in [0, 100], got {percent_selfish}"
            )
        # Set before super().__init__ because bootstrap spawns peers.
        self._selfish_fraction = percent_selfish / 100.0
        self._budget_factory = budget_factory
        self._selfish: Set[Address] = set()
        self._budgets: Dict[Address, ProbeBudget] = {}
        self._selfish_queries = 0
        self._selfish_satisfied = 0
        self._selfish_probes = 0
        self._selfish_rt_sum = 0.0
        self._selfish_rt_count = 0
        self._selfish_broke = 0
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _peer_spawned(self, peer: GuessPeer) -> None:
        if not peer.malicious and self._selfish_fraction > 0.0:
            if self.rng.stream("selfish").random() < self._selfish_fraction:
                self._selfish.add(peer.address)
                if self._budget_factory is not None:
                    self._budgets[peer.address] = self._budget_factory()

    def _on_death(self, peer):
        self._selfish.discard(peer.address)
        self._budgets.pop(peer.address, None)
        super()._on_death(peer)

    # ------------------------------------------------------------------
    # Query routing
    # ------------------------------------------------------------------

    def _run_query(self, peer: GuessPeer, target: int, now: float) -> QueryResult:
        if peer.address not in self._selfish:
            return super()._run_query(peer, target, now)
        result = execute_selfish_query(
            peer,
            target,
            self.transport,
            now,
            rng=self.rng.stream("policies"),
            desired_results=self.system.num_desired_results,
            budget=self._budgets.get(peer.address),
        )
        self._record_selfish(result, now)
        return result

    def _record_selfish(self, result, time: float) -> None:
        if time < self.collector.warmup:
            return
        self._selfish_queries += 1
        if result.satisfied:
            self._selfish_satisfied += 1
        self._selfish_probes += result.probes
        if result.response_time is not None:
            self._selfish_rt_sum += result.response_time
            self._selfish_rt_count += 1
        if result.probes == 0 and not result.pool_exhausted:
            self._selfish_broke += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def selfish_report(self) -> SelfishReport:
        """Summary of the selfish minority's own experience."""
        return SelfishReport(
            queries=self._selfish_queries,
            satisfied=self._selfish_satisfied,
            probes_per_query=ratio(self._selfish_probes, self._selfish_queries),
            mean_response_time=(
                self._selfish_rt_sum / self._selfish_rt_count
                if self._selfish_rt_count
                else None
            ),
            broke_queries=self._selfish_broke,
        )
