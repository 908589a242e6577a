"""Trial executor: serial/parallel equivalence and dispatch rules.

The executor's whole contract is that parallelism is invisible in the
results: seeds derive in the parent before dispatch, ``map`` preserves
submission order, and a report computed in a worker process equals the
one the same spec produces in-process.  These tests pin that contract
at a tiny scale (the digest-level equivalence of full runs is covered
by tests/integration/test_determinism.py).
"""

from __future__ import annotations

import gc

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ConfigError
from repro.core.network_sim import GuessSimulation
from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import (
    ProcessTrialExecutor,
    SerialTrialExecutor,
    TrialSpec,
    execute_trial,
    get_executor,
)
from repro.experiments.runner import run_guess_config
from tests.experiments.helpers import ChaosSpec, chaotic_trial

SYSTEM = SystemParams(network_size=30)
PROTOCOL = ProtocolParams(cache_size=8)
RUN_KWARGS = dict(duration=60.0, warmup=10.0, trials=3, base_seed=2024)


def _spec(seed: int) -> TrialSpec:
    return TrialSpec(
        system=SYSTEM,
        protocol=PROTOCOL,
        duration=40.0,
        warmup=5.0,
        seed=seed,
    )


def _report_fields(report) -> dict:
    return {key: repr(value) for key, value in vars(report).items()}


class TestGetExecutor:
    def test_default_is_serial(self):
        with get_executor(1) as executor:
            assert isinstance(executor, SerialTrialExecutor)
        with get_executor(None) as executor:
            assert isinstance(executor, SerialTrialExecutor)

    def test_positive_count_is_process_pool(self):
        with get_executor(2) as executor:
            assert isinstance(executor, ProcessTrialExecutor)
            assert executor.workers == 2

    def test_zero_means_one_per_cpu(self):
        with get_executor(0) as executor:
            assert isinstance(executor, ProcessTrialExecutor)
            assert executor.workers >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            get_executor(-1)


class TestMapOrder:
    def test_serial_preserves_order(self):
        with SerialTrialExecutor() as executor:
            assert executor.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_process_pool_preserves_order(self):
        with ProcessTrialExecutor(workers=2) as executor:
            assert executor.map(abs, [-5, 2, -1, 0, 7]) == [5, 2, 1, 0, 7]


class TestSerialParallelEquivalence:
    def test_single_trial_matches_inline(self):
        spec = _spec(seed=42)
        inline = execute_trial(spec)
        with ProcessTrialExecutor(workers=2) as executor:
            # Two specs force the pool path (1-item batches run inline).
            remote, remote_again = executor.run_trials([spec, spec])
        assert _report_fields(remote) == _report_fields(inline)
        assert _report_fields(remote_again) == _report_fields(inline)

    def test_run_guess_config_workers_equivalent(self):
        serial = run_guess_config(SYSTEM, PROTOCOL, workers=1, **RUN_KWARGS)
        parallel = run_guess_config(SYSTEM, PROTOCOL, workers=2, **RUN_KWARGS)
        assert len(serial) == len(parallel) == RUN_KWARGS["trials"]
        for left, right in zip(serial, parallel):
            assert _report_fields(left) == _report_fields(right)

    def test_trial_order_is_stable(self):
        # Trials differ (distinct derived seeds); order must match the
        # serial run's trial order, not completion order.
        serial = run_guess_config(SYSTEM, PROTOCOL, workers=1, **RUN_KWARGS)
        parallel = run_guess_config(SYSTEM, PROTOCOL, workers=3, **RUN_KWARGS)
        serial_queries = [report.queries for report in serial]
        parallel_queries = [report.queries for report in parallel]
        assert serial_queries == parallel_queries
        assert len(set(serial_queries)) > 1, "trials should not be identical"

    def test_shared_executor_reused_across_calls(self):
        with get_executor(2) as executor:
            first = run_guess_config(
                SYSTEM, PROTOCOL, executor=executor, **RUN_KWARGS
            )
            second = run_guess_config(
                SYSTEM, PROTOCOL, executor=executor, **RUN_KWARGS
            )
        assert _report_fields(first[0]) == _report_fields(second[0])


class TestTrialTeardown:
    def test_a_finished_trial_leaves_no_simulation_behind(self):
        # The simulation is cyclic garbage once its report is out; with the
        # collector off, only ``execute_trial`` itself can have freed it.
        def simulations():
            return {
                id(o) for o in gc.get_objects() if isinstance(o, GuessSimulation)
            }

        gc.disable()
        try:
            before = simulations()
            report = execute_trial(_spec(seed=42))
            assert simulations() <= before
        finally:
            gc.enable()
        assert report.total_probes > 0


class TestPoolLifecycle:
    def test_single_item_batch_never_starts_pool(self):
        with ProcessTrialExecutor(workers=2) as executor:
            [report] = executor.run_trials([_spec(seed=5)])
            assert executor._pool is None
        assert _report_fields(report) == _report_fields(
            execute_trial(_spec(seed=5))
        )

    def test_exit_closes_pool_on_exception(self):
        executor = ProcessTrialExecutor(workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            with executor:
                executor.map(abs, [-1, 2])
                assert executor._pool is not None
                raise RuntimeError("boom")
        assert executor._pool is None

    def test_close_is_idempotent(self):
        executor = ProcessTrialExecutor(workers=2)
        executor.map(abs, [-1, 2])
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_broken_pool_is_discarded_and_respawned(self):
        # A worker dying mid-batch poisons the ProcessPoolExecutor; the
        # executor must surface the error, retire the dead pool, and
        # serve the next batch from a fresh one.
        crash = (_spec(seed=6), ChaosSpec(mode="exit"))
        with ProcessTrialExecutor(workers=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.map(chaotic_trial, [crash, (_spec(seed=7), None)])
            assert executor._pool is None
            reports = executor.run_trials([_spec(seed=8), _spec(seed=9)])
        assert _report_fields(reports[0]) == _report_fields(
            execute_trial(_spec(seed=8))
        )

    def test_close_after_broken_pool_is_safe(self):
        crash = (_spec(seed=6), ChaosSpec(mode="exit"))
        executor = ProcessTrialExecutor(workers=2)
        with pytest.raises(BrokenProcessPool):
            executor.map(chaotic_trial, [crash, (_spec(seed=7), None)])
        executor.close()
        executor.close()

