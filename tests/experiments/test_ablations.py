"""Micro-scale tests for the ablation experiment producers.

The detection ablation runs a fixed 900-simulated-second attack; its
claim is held by ``tests/extensions/test_detection.py``.  The cheaper
producers are validated here, and four ablations' claims are rows of
``tests/integration/claims.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations
from repro.experiments.profiles import Profile

MICRO = Profile(
    name="micro-ablate",
    duration=150.0,
    warmup=50.0,
    trials=1,
    network_sizes=(60,),
    reference_size=60,
    cache_sizes=(5, 20),
    ping_intervals=(15.0,),
    baseline_queries=60,
    max_extent=60,
)


class TestParallelAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_parallel_ablation(MICRO)

    def test_shape(self, result):
        assert result.experiment_id == "ablation-parallel"
        assert [row[0] for row in result.rows] == list(
            ablations.PARALLEL_WALKERS
        )

    def test_response_time_improves_with_k(self, result):
        rows = {k: row for k, *row in result.rows}
        assert rows[10][2] < rows[1][2]

    def test_probe_overhead_bounded(self, result):
        rows = {k: row for k, *row in result.rows}
        # Overhead per query is at most ~k-1 probes (plus noise).
        assert rows[10][0] <= rows[1][0] + 10 + 2


class TestBackoffAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_backoff_ablation(MICRO)

    def test_shape(self, result):
        assert result.experiment_id == "ablation-backoff"
        assert [row[0] for row in result.rows] == [False, True]

    def test_valid_rates(self, result):
        for _, _, refused, unsat in result.rows:
            assert refused >= 0.0
            assert 0.0 <= unsat <= 1.0


class TestAdaptiveSearchAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_adaptive_search_ablation(MICRO)

    def test_shape(self, result):
        assert result.experiment_id == "ablation-adaptive-search"
        assert {row[0] for row in result.rows} == {
            "serial (k=1)", "fixed k=10", "adaptive",
        }

    def test_adaptive_between_serial_and_fixed(self, result):
        rows = {label: row for label, *row in result.rows}
        assert rows["adaptive"][0] <= rows["fixed k=10"][0] + 1.0
