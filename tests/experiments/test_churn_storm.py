"""Tests for the churn-storm resilience suite.

Covers the suite's contracts: the grid is complete and the mechanism
counters behave (mechanisms off ⇒ no suppressions/denials/shedding;
mechanisms on ⇒ breakers fully replace refusal-driven eviction); the
headline claim — at equal seed, arming the resilience layer strictly
improves both time-to-recovery and results/query for the pinned storm
cell; and a parallel run is byte-identical to a serial one with storms
active.
"""

from __future__ import annotations

import pytest

from repro.experiments import churn_storm
from repro.experiments.executor import get_executor
from repro.experiments.profiles import get_profile
from repro.experiments.runner import ExperimentResult, run_sweep
from repro.observe.manifest import ManifestRecorder, activated, verify_manifest
from tests.experiments.helpers import MICRO, pinned


def grid_cells(grid: ExperimentResult) -> dict:
    return {(row[0], row[1]): row for row in grid.rows}


class TestSuiteShape:
    @pytest.fixture(scope="class")
    def results(self):
        return pinned(
            churn_storm.run_suite(MICRO),
            "fcff76c7789dcf939ca2a9316c505c9fcfe31da40ac575db401fcac87a670c75",
        )

    def test_ids(self, results):
        assert [r.experiment_id for r in results] == [
            "storm_grid", "storm_recovery",
        ]

    def test_grid_complete(self, results):
        cells = grid_cells(results[0])
        assert set(cells) == {
            (fraction, mechanisms)
            for fraction in churn_storm.STORM_FRACTIONS
            for mechanisms in ("off", "on")
        }

    def test_columns_split_evictions_by_cause(self, results):
        columns = results[0].columns
        assert "RefusalEvict" in columns
        assert "DeadEvict" in columns

    def test_recovery_series_per_mechanisms_setting(self, results):
        series = results[1].series
        assert set(series) == {"mechanisms=off", "mechanisms=on"}
        for points in series.values():
            assert [x for x, _ in points] == list(
                churn_storm.STORM_FRACTIONS
            )

    def test_mechanisms_off_cells_have_no_mechanism_artifacts(
        self, results
    ):
        cells = grid_cells(results[0])
        for fraction in churn_storm.STORM_FRACTIONS:
            row = cells[(fraction, "off")]
            _, _, satisfied, _, _, _, suppressed, denied, shed, _ = row
            assert suppressed == 0.0
            assert denied == 0.0
            assert shed == 0.0
            assert 0.0 <= satisfied <= 1.0

    def test_breaker_replaces_refusal_eviction(self, results):
        cells = grid_cells(results[0])
        for fraction in churn_storm.STORM_FRACTIONS:
            # Armed: the breaker absorbs every refusal, so the
            # do_backoff=False eviction reflex never fires.
            assert cells[(fraction, "on")][4] == 0.0

    def test_storm_kills_are_visible_as_dead_evictions(self, results):
        cells = grid_cells(results[0])
        small = cells[(churn_storm.STORM_FRACTIONS[0], "off")][5]
        large = cells[(churn_storm.STORM_FRACTIONS[-1], "off")][5]
        assert small > 0.0
        assert large > small


class TestMechanismsImprove:
    """The headline pin: resilience strictly improves the storm cell.

    Both cells share base seed, scenario plan, and workload; only the
    per-peer mechanisms differ.  At the smoke profile the fraction-0.5
    cell must show a strictly shorter time-to-recovery *and* strictly
    more results per query with the mechanisms armed.
    """

    FRACTION = 0.5

    @pytest.fixture(scope="class")
    def cells(self):
        profile = get_profile("smoke")
        pair = {
            key: cell
            for key, cell in churn_storm.cells(profile).items()
            if key[0] == self.FRACTION
        }
        measured = run_sweep(pair, churn_storm.metrics(profile))
        return measured[(self.FRACTION, "off")], measured[(self.FRACTION, "on")]

    def test_recovery_strictly_improves(self, cells):
        off, on = cells
        assert on["Recovery(s)"] < off["Recovery(s)"]

    def test_results_per_query_strictly_improves(self, cells):
        off, on = cells
        assert on["Results/Query"] > off["Results/Query"]

    def test_improvement_is_attributable(self, cells):
        off, on = cells
        # The off cell evicts on refusal; the on cell never does, and
        # its budget/shedding counters show the mechanisms actually ran.
        assert off["RefusalEvict"] > 0.0
        assert on["RefusalEvict"] == 0.0
        assert on["Denied"] > 0.0
        assert on["Shed"] > 0.0


class TestParallelEquality:
    def test_workers_2_report_is_byte_identical_to_serial(self):
        serial = churn_storm.run_suite(MICRO)
        with get_executor(2) as pool:
            parallel = churn_storm.run_suite(MICRO, pool)
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
            churn_storm.run_suite(MICRO)
        manifest = recorder.build(
            profile="micro", suites=["churn_storm"], workers=1, wall_clock_seconds=0.0
        )
        assert verify_manifest(manifest, workers=2) == []
