"""Tests for the sweep runner: one batch per sweep, folded per cell.

The contract every suite now leans on: ``run_cells`` flattens a
``{key: Cell}`` grid into a single ``run_trials`` call in (cell, trial)
order with the seeds ``run_guess_config`` would derive, cuts the reports
back under the right keys, records each cell into the manifest as if it
had run alone, and ``run_sweep`` folds only completed reports.  The
second half drives all twelve suites through an executor that
quarantines a trial in every batch.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.params import ProtocolParams, SystemParams
from repro.errors import TrialFailure
from repro.experiments import ping_interval
from repro.experiments.executor import SerialTrialExecutor
from repro.experiments.profiles import Profile
from repro.experiments.run_all import SUITES
from repro.experiments.runner import (
    Cell,
    ExperimentResult,
    averaged,
    grid_curves,
    grid_table,
    run_cells,
    run_guess_config,
    run_sweep,
)
from repro.metrics.summary import mean
from repro.observe.manifest import ManifestRecorder, activated
from repro.sim.rng import derive_seed
from tests.experiments.helpers import MICRO

TINY = Profile(
    name="tiny",
    duration=40.0,
    warmup=10.0,
    trials=1,
    network_sizes=(30,),
    reference_size=30,
    cache_sizes=(5,),
    ping_intervals=(15.0,),
    baseline_queries=10,
    max_extent=30,
)
SYSTEM = SystemParams(network_size=30, query_rate=0.05)


def tiny_cells() -> dict:
    """Two cells with different trial counts, as in gossip_search."""
    return {
        "one": Cell.at(TINY, SYSTEM, ProtocolParams(cache_size=8), 0x51),
        "four": Cell.at(
            TINY, SYSTEM, ProtocolParams(cache_size=4), 0x52, trials=4
        ),
    }


class RecordingExecutor(SerialTrialExecutor):
    """Serial execution that remembers every ``run_trials`` batch."""

    def __init__(self) -> None:
        self.batches: list = []

    def run_trials(self, specs):
        self.batches.append(list(specs))
        return super().run_trials(specs)


class QuarantiningExecutor(RecordingExecutor):
    """Leaves a ``TrialFailure`` in slot 0 of every batch, like a
    supervised executor whose first trial exhausted its retries."""

    def map(self, fn, items):
        items = list(items)
        failure = TrialFailure(index=0, attempts=3, error="injected")
        return [failure] + super().map(fn, items[1:])


class TestOneBatchPerSweep:
    def test_one_run_trials_call_in_cell_then_trial_order(self):
        executor = RecordingExecutor()
        run_cells(tiny_cells(), executor)
        (batch,) = executor.batches
        assert [spec.protocol.cache_size for spec in batch] == [8, 4, 4, 4, 4]
        assert [spec.seed for spec in batch] == [
            derive_seed(0x51, "trial:0"),
            *(derive_seed(0x52, f"trial:{i}") for i in range(4)),
        ]

    def test_seeds_are_the_ones_run_guess_config_derives(self):
        swept, alone = RecordingExecutor(), RecordingExecutor()
        run_cells(tiny_cells(), swept)
        run_guess_config(
            SYSTEM, ProtocolParams(cache_size=4), duration=TINY.duration,
            warmup=TINY.warmup, trials=4, base_seed=0x52, executor=alone,
        )
        assert swept.batches[0][1:] == alone.batches[0]

    def test_reports_come_back_under_their_keys(self):
        reports = run_cells(tiny_cells())
        assert list(reports) == ["one", "four"]
        assert [len(found) for found in reports.values()] == [1, 4]
        alone = run_guess_config(
            SYSTEM, ProtocolParams(cache_size=4), duration=TINY.duration,
            warmup=TINY.warmup, trials=4, base_seed=0x52,
        )
        assert reports["four"] == alone

    def test_one_cell_sweep_equals_run_guess_config(self):
        kwargs = dict(duration=40.0, warmup=10.0, trials=2, base_seed=9)
        alone = run_guess_config(
            SYSTEM, ProtocolParams(), trace_hash=True, **kwargs
        )
        template = Cell.at(TINY, SYSTEM, ProtocolParams(), 9, trace_hash=True)
        swept = run_cells({"only": Cell(template.spec, 9, 2)})["only"]
        assert swept == alone
        assert [r.trace_digest for r in swept] == [
            r.trace_digest for r in alone
        ]
        assert all(r.trace_digest for r in swept)

    def test_manifest_gets_one_config_per_cell_in_cell_order(self):
        executor, recorder = RecordingExecutor(), ManifestRecorder()
        with activated(recorder):
            reports = run_cells(tiny_cells(), executor)
        # The recorder forces trace hashing on every dispatched trial.
        assert all(spec.trace_hash for spec in executor.batches[0])
        assert [
            (c["protocol"]["cache_size"], c["base_seed"], c["trials"])
            for c in recorder.configs
        ] == [(8, 0x51, 1), (4, 0x52, 4)]
        for config, found in zip(recorder.configs, reports.values()):
            assert config["trace_digests"] == [r.trace_digest for r in found]
            assert all(config["trace_digests"])
        assert recorder.configs[1]["seeds"] == [
            derive_seed(0x52, f"trial:{i}") for i in range(4)
        ]


class TestFold:
    def test_metrics_see_completed_reports_only(self):
        clean = run_cells(tiny_cells())
        seen = {}

        def count(reports):
            seen[len(seen)] = list(reports)
            return len(reports)

        measured = run_sweep(
            tiny_cells(),
            {"Probes": "probes_per_query", "Trials": count},
            QuarantiningExecutor(),
        )
        # Slot 0 of the one batch is cell "one"'s only trial.
        assert measured["one"] == {"Probes": 0.0, "Trials": 0}
        assert measured["four"]["Trials"] == 4
        assert seen[1] == clean["four"]
        assert measured["four"]["Probes"] == averaged(
            clean["four"], "probes_per_query"
        )

    def test_quarantined_trial_leaves_the_survivors_numbers(self):
        pair = {"pair": Cell(tiny_cells()["one"].spec, 0x51, 2)}
        survivor = run_cells(pair)["pair"][1]
        measured = run_sweep(
            pair, {"Probes": "probes_per_query"}, QuarantiningExecutor()
        )
        assert measured["pair"]["Probes"] == survivor.probes_per_query

    def test_grid_builders(self):
        measured = {
            (0.1, "a"): {"Hits": 1.0, "Cost": 5.0},
            (0.2, "a"): {"Hits": 2.0, "Cost": 6.0},
            (0.1, "b"): {"Hits": 3.0, "Cost": 7.0},
        }
        table = grid_table("t", "T", ("X", "Mode"), measured, notes="n")
        assert table.columns == ("X", "Mode", "Hits", "Cost")
        assert table.rows[2] == (0.1, "b", 3.0, 7.0)
        curves = grid_curves(
            "c", "C", measured, "Hits", label="mode={}", x_label="x", notes=""
        )
        assert curves.series == {
            "mode=a": [(0.1, 1.0), (0.2, 2.0)],
            "mode=b": [(0.1, 3.0)],
        }
        scalar_keys = grid_table("t", "T", ("K",), {7: {"V": 1.0}}, notes="")
        assert scalar_keys.rows == ((7, 1.0),)


#: ``run_trials`` calls each suite makes: one per declared sweep
#: (malicious sweeps once per BadPongBehavior, ablations once per
#: executor-backed ablation; policy_comparison still dispatches once per
#: policy, and ping_interval maps its own worker instead).
DISPATCHES = {
    "cache_size": 1,
    "ping_interval": 0,
    "flexible_extent": 1,
    "policy_comparison": 15,
    "fairness": 1,
    "capacity": 1,
    "malicious": 2,
    "ablations": 4,
    "packet_loss": 1,
    "churn_storm": 1,
    "gossip_search": 1,
    "cache_freshness": 1,
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_quarantine_degrades_every_suite(suite):
    """A ``TrialFailure`` in a report slot costs a cell one sample.

    ``--supervise`` promises a quarantined trial degrades the sweep
    instead of aborting it; every suite must honour that, not only the
    ones that happen to fold through ``averaged``.
    """
    run_suite, declared = SUITES[suite]
    executor = QuarantiningExecutor()
    results = run_suite(replace(MICRO, trials=2), executor)
    assert [result.experiment_id for result in results] == list(declared)
    assert all(isinstance(result, ExperimentResult) for result in results)
    assert all(result.render() for result in results)
    assert len(executor.batches) == DISPATCHES[suite]


def test_quarantined_lcc_trial_leaves_the_survivors_mean():
    measured = ping_interval.measure_lcc(
        30, 5, 15.0, duration=60.0, trials=2, base_seed=3,
        executor=QuarantiningExecutor(),
    )
    survivor = ping_interval._lcc_trial(
        (30, 5, 15.0, 60.0, derive_seed(3, "lcc:1"))
    )
    assert measured == mean(survivor)
