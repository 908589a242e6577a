"""Tests for the packet-loss robustness suite.

Covers the suite's three contracts: the grid is complete and reports
spurious timeouts separately from true dead probes; the fault-free cell
reproduces the policy-comparison Random baseline (same seed, same
numbers); and a parallel run is byte-identical to a serial one even
with faults injected.
"""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.experiments import packet_loss, policy_comparison
from repro.experiments.executor import get_executor
from repro.experiments.runner import ExperimentResult, run_sweep
from repro.observe.manifest import ManifestRecorder, activated, verify_manifest
from tests.experiments.helpers import MICRO, pinned


def grid_cells(grid: ExperimentResult) -> dict:
    return {(row[0], row[1]): row for row in grid.rows}


class TestSuiteShape:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            packet_loss.run_suite(MICRO),
            "1dedc5d1349525b2cb3e3599f3a0e9ed86b4df87b5f2229523eddb50500bbec6",
        )

    def test_ids(self, results):
        assert [r.experiment_id for r in results] == [
            "loss_grid", "loss_satisfaction",
        ]

    def test_grid_complete(self, results):
        cells = grid_cells(results[0])
        assert set(cells) == {
            (loss, retries)
            for loss in packet_loss.LOSS_RATES
            for retries in packet_loss.RETRY_BUDGETS
        }

    def test_columns_separate_spurious_from_dead(self, results):
        columns = results[0].columns
        assert "DeadIPs/Query" in columns
        assert "Spurious/Query" in columns

    def test_satisfaction_series_per_budget(self, results):
        series = results[1].series
        assert set(series) == {
            f"retries={r}" for r in packet_loss.RETRY_BUDGETS
        }
        for points in series.values():
            assert [x for x, _ in points] == list(packet_loss.LOSS_RATES)

    def test_fault_free_cells_have_no_fault_artifacts(self, results):
        cells = grid_cells(results[0])
        for retries in packet_loss.RETRY_BUDGETS:
            row = cells[(0.0, retries)]
            _, _, satisfied, _, _, _, spurious, _, _, wrongful = row
            assert spurious == 0.0
            assert wrongful == 0.0
            assert 0.0 <= satisfied <= 1.0

    def test_loss_inflates_spurious_timeouts(self, results):
        cells = grid_cells(results[0])
        lossy = cells[(0.20, 0)]
        spurious, dead = lossy[6], lossy[5]
        assert spurious > 0.0
        # Spurious timeouts are a subset of the DeadIPs the prober sees.
        assert spurious <= dead
        assert lossy[9] > 0.0  # wrongful evictions of live entries

    def test_retries_recover_spurious_timeouts(self, results):
        cells = grid_cells(results[0])
        without = cells[(0.20, 0)]
        with_retry = cells[(0.20, 2)]
        assert with_retry[5] < without[5]  # fewer apparent dead probes
        assert 0.0 < with_retry[7] <= 1.0  # recovery rate measured
        assert without[7] == 0.0  # no retries, nothing recovered
        assert with_retry[2] >= without[2]  # satisfaction not worse


class TestBaselineAnchor:
    def test_fault_free_cell_reproduces_fig9_random_numbers(self):
        """loss=0, retries=0 shares seed 0x909 and the default protocol
        with the fig9 Random cell — the numbers must match exactly."""
        anchor = {(0.0, 0): packet_loss.cells(MICRO)[(0.0, 0)]}
        cell = run_sweep(anchor, packet_loss.METRICS)[(0.0, 0)]
        baseline = policy_comparison._measure(
            MICRO, ProtocolParams(), packet_loss.BASE_SEED
        )
        assert cell["Probes/Query"] == baseline["total"]
        assert cell["DeadIPs/Query"] == baseline["dead"]
        assert cell["Satisfied"] == pytest.approx(1.0 - baseline["unsat"])


class TestParallelEquality:
    def test_workers_2_report_is_byte_identical_to_serial(self):
        serial = packet_loss.run_suite(MICRO)
        with get_executor(2) as pool:
            parallel = packet_loss.run_suite(MICRO, pool)
            # The grid goes out as one batch, so even one-trial cells
            # reach the workers: this compares serial with parallel.
            assert pool.pool_started
        assert [r.render() for r in serial] == [
            r.render() for r in parallel
        ]

    def test_recorded_sweep_replays_on_two_workers(self):
        # What CI's suite-smoke job runs: a serial run's manifest,
        # replayed trial by trial on a pool.
        recorder = ManifestRecorder()
        with activated(recorder):
            packet_loss.run_suite(MICRO)
        manifest = recorder.build(
            profile="micro", suites=["packet_loss"], workers=1, wall_clock_seconds=0.0
        )
        assert verify_manifest(manifest, workers=2) == []
