"""Adaptive k-parallel probing (paper §6.2, left to future work).

    "A more sophisticated solution may adaptively increase k if
    successive sets of parallel probes are unsuccessful."

:class:`EscalatingWidth` is that rule, asked by the one probe loop
(:func:`repro.core.search.execute_query`, ``width=``) after every wave:
the query starts serial (or at ``initial``), and every ``period``
consecutive result-free waves the width doubles, up to ``ceiling``.
Popular items keep the serial protocol's minimal cost; rare items trade
bounded extra probes for far better worst-case response time.  With
``ceiling == initial`` the rule is a constant width — how the selfish
blast and the fixed-k ablation widen one query without touching the
peer's ``ProtocolParams``.
"""

from __future__ import annotations

import random

from repro.core.peer import GuessPeer
from repro.core.search import QueryResult, execute_query
from repro.errors import ConfigError
from repro.network.transport import Transport


class EscalatingWidth:
    """Per-query wave-width rule: double after ``period`` dry waves.

    Args:
        initial: wave width at query start.
        ceiling: escalation ceiling (``== initial`` pins the width).
        period: consecutive result-free waves before the width doubles.
    """

    __slots__ = ("initial", "ceiling", "period", "_width", "_dry_waves")

    def __init__(self, initial: int, ceiling: int, period: int = 1) -> None:
        if initial < 1:
            raise ConfigError(f"initial_walkers must be >= 1, got {initial}")
        if ceiling < initial:
            raise ConfigError(
                f"max_walkers {ceiling} must be >= initial_walkers {initial}"
            )
        if period < 1:
            raise ConfigError(f"escalation_period must be >= 1, got {period}")
        self.initial = initial
        self.ceiling = ceiling
        self.period = period
        self._width = initial
        self._dry_waves = 0

    def next(self, gained: int) -> int:
        """Width of the wave after one that gained ``gained`` results."""
        if gained:
            self._dry_waves = 0
        else:
            self._dry_waves += 1
            if self._dry_waves >= self.period and self._width < self.ceiling:
                self._width = min(self.ceiling, self._width * 2)
                self._dry_waves = 0
        return self._width


def execute_adaptive_query(
    peer: GuessPeer,
    target_file: int,
    transport: Transport,
    now: float,
    *,
    rng: random.Random,
    desired_results: int = 1,
    initial_walkers: int = 1,
    max_walkers: int = 32,
    escalation_period: int = 5,
) -> QueryResult:
    """Run one query with adaptively escalating parallelism.

    Args:
        initial_walkers: wave width at query start.
        max_walkers: escalation ceiling.
        escalation_period: consecutive result-free waves before the wave
            width doubles.

    Returns:
        A :class:`~repro.core.search.QueryResult`; ``duration`` reflects
        the escalated wave schedule.
    """
    return execute_query(
        peer,
        target_file,
        transport,
        now,
        rng=rng,
        desired_results=desired_results,
        width=EscalatingWidth(initial_walkers, max_walkers, escalation_period),
    )
