"""Supervised execution: watchdog, retry, quarantine, checkpoint/resume.

The supervisor's headline guarantee is that none of its machinery is
visible in the results: a sweep whose workers crashed (raise /
``os._exit`` / hang) and that was killed and resumed from its journal
produces reports and trace digests byte-identical to a one-shot serial
run.  These tests drive every failure mode through the deterministic
crash injection of ``tests/experiments/helpers.py`` (``chaotic_trial``
mapped over ``(spec, chaos)`` items) and pin that guarantee — including
the three golden digests from ``tests/integration/test_determinism.py``
run under supervision.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.errors import ConfigError, TrialFailure
from repro.experiments.executor import TrialSpec, execute_trial
from repro.experiments.runner import averaged, run_guess_config
from repro.experiments.supervisor import (
    SupervisedTrialExecutor,
    SweepInterrupted,
    TrialJournal,
    trial_fingerprint,
    verify_journal_against_manifest,
)
from repro.faults.plan import FaultPlan
from repro.observe.manifest import ManifestRecorder, activated
from tests.experiments.helpers import (
    ChaosError,
    ChaosSpec,
    _apply_chaos,
    chaotic_trial,
)

SYSTEM = SystemParams(network_size=30)
PROTOCOL = ProtocolParams(cache_size=8)


def _spec(seed: int) -> TrialSpec:
    return TrialSpec(
        system=SYSTEM,
        protocol=PROTOCOL,
        duration=40.0,
        warmup=5.0,
        seed=seed,
        trace_hash=True,
    )


def _sabotaged(specs, chaos) -> list:
    """``(spec, chaos)`` items for ``chaotic_trial``; ``chaos`` by position."""
    return [(spec, chaos.get(index)) for index, spec in enumerate(specs)]


def _drill(seeds, chaos) -> list:
    return _sabotaged([_spec(seed) for seed in seeds], chaos)


def _fields(report) -> dict:
    return {key: repr(value) for key, value in vars(report).items()}


def _serial(seeds) -> list:
    return [execute_trial(_spec(seed)) for seed in seeds]


class _Sabotaging(SupervisedTrialExecutor):
    """A supervisor whose trial batches run through ``chaotic_trial``.

    ``chaos`` maps positions in each batch to crash injections, so a
    suite-level call (``run_guess_config``) can be drilled unchanged.
    """

    def __init__(self, chaos, **kwargs):
        super().__init__(**kwargs)
        self._chaos = chaos

    def run_trials(self, specs):
        return self.map(chaotic_trial, _sabotaged(specs, self._chaos))


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            SupervisedTrialExecutor(workers=-2)
        with pytest.raises(ConfigError):
            SupervisedTrialExecutor(max_attempts=0)
        with pytest.raises(ConfigError):
            SupervisedTrialExecutor(trial_timeout=0.0)

    def test_zero_workers_means_one_per_cpu(self):
        with SupervisedTrialExecutor(workers=0) as executor:
            assert executor.workers >= 1


class TestSupervisedBasics:
    def test_map_preserves_order(self):
        with SupervisedTrialExecutor(workers=2) as executor:
            assert executor.map(abs, [-5, 2, -1, 0, 7]) == [5, 2, 1, 0, 7]

    def test_matches_serial_execution(self):
        seeds = [11, 12, 13]
        with SupervisedTrialExecutor(workers=2) as executor:
            supervised = executor.run_trials([_spec(s) for s in seeds])
        for left, right in zip(supervised, _serial(seeds)):
            assert _fields(left) == _fields(right)

    def test_single_item_batch_is_crash_isolated(self):
        # Unlike ProcessTrialExecutor's in-process bypass, a supervised
        # single-item batch runs in a worker: an os._exit must kill a
        # worker, never the parent.
        chaos = {0: ChaosSpec(mode="exit")}
        with SupervisedTrialExecutor(workers=2, max_attempts=1) as executor:
            [result] = executor.map(chaotic_trial, _drill([1], chaos))
        assert isinstance(result, TrialFailure)
        assert result.kind == "crash"


class TestChaosHook:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            ChaosSpec(mode="explode")

    def test_bounded_chaos_requires_marker_dir(self):
        with pytest.raises(ConfigError):
            ChaosSpec(mode="raise", times=1)

    def test_marker_counts_attempts(self, tmp_path):
        chaos = ChaosSpec(
            mode="raise", times=2, marker_dir=str(tmp_path), key="k"
        )
        with pytest.raises(ChaosError):
            _apply_chaos(chaos)
        with pytest.raises(ChaosError):
            _apply_chaos(chaos)
        _apply_chaos(chaos)  # budget spent: clean from now on
        _apply_chaos(chaos)

    def test_chaos_fires_before_simulation(self):
        # A surviving attempt's report must carry no trace of chaos:
        # the hook runs before the simulation exists.
        with pytest.raises(ChaosError):
            chaotic_trial((_spec(3), ChaosSpec(mode="raise")))


class TestCrashRetry:
    @pytest.mark.parametrize("mode", ["raise", "exit"])
    def test_retry_reproduces_serial_report(self, tmp_path, mode):
        chaos = ChaosSpec(
            mode=mode, times=1, marker_dir=str(tmp_path), key=f"c-{mode}"
        )
        with SupervisedTrialExecutor(workers=2) as executor:
            supervised = executor.map(
                chaotic_trial, _drill([21, 22, 23], {1: chaos})
            )
            assert executor.failures == []
        for left, right in zip(supervised, _serial([21, 22, 23])):
            assert _fields(left) == _fields(right)

    def test_watchdog_kills_hung_worker_and_retries(self, tmp_path):
        chaos = ChaosSpec(
            mode="hang",
            times=1,
            marker_dir=str(tmp_path),
            key="h",
            hang_seconds=300.0,
        )
        with SupervisedTrialExecutor(
            workers=2, trial_timeout=5.0
        ) as executor:
            supervised = executor.map(chaotic_trial, _drill([31, 32], {0: chaos}))
            assert executor.failures == []
        for left, right in zip(supervised, _serial([31, 32])):
            assert _fields(left) == _fields(right)


class TestQuarantine:
    def test_exhausted_trial_becomes_failure_without_aborting_siblings(self):
        items = _drill([41, 42, 43], {1: ChaosSpec(mode="raise")})
        with SupervisedTrialExecutor(workers=2, max_attempts=2) as executor:
            results = executor.map(chaotic_trial, items)
            assert [f.index for f in executor.failures] == [1]
        failure = results[1]
        assert isinstance(failure, TrialFailure)
        assert failure.attempts == 2
        assert failure.kind == "error"
        assert "ChaosError" in failure.error
        assert failure.trace_digest is None
        for index in (0, 2):
            assert _fields(results[index]) == _fields(
                execute_trial(items[index][0])
            )

    def test_quarantined_trial_reruns_on_resume(self, tmp_path):
        journal = str(tmp_path / "t.journal.jsonl")
        # Sabotage budget = 2 failed attempts; the first run quarantines
        # at max_attempts=2, the resumed run finds the budget spent and
        # completes the trial cleanly.
        chaos = ChaosSpec(
            mode="raise", times=2, marker_dir=str(tmp_path), key="q"
        )
        items = _drill([51, 52], {1: chaos})
        with SupervisedTrialExecutor(
            workers=2, max_attempts=2, journal=journal
        ) as executor:
            first = executor.map(chaotic_trial, items)
        assert isinstance(first[1], TrialFailure)
        with SupervisedTrialExecutor(
            workers=2, max_attempts=2, journal=journal, resume=True
        ) as executor:
            resumed = executor.map(chaotic_trial, items)
            assert executor.failures == []
        serial = _serial([51, 52])
        for left, right in zip(resumed, serial):
            assert _fields(left) == _fields(right)

    def test_run_guess_config_surfaces_failure_in_suite_output(self):
        kwargs = dict(duration=40.0, warmup=5.0, trials=3, base_seed=77)
        with _Sabotaging(
            {1: ChaosSpec(mode="raise")}, workers=2, max_attempts=1
        ) as executor:
            reports = run_guess_config(
                SYSTEM, PROTOCOL, executor=executor, **kwargs
            )
        serial = run_guess_config(SYSTEM, PROTOCOL, **kwargs)
        assert len(reports) == 3
        assert isinstance(reports[1], TrialFailure)
        assert _fields(reports[0]) == _fields(serial[0])
        assert _fields(reports[2]) == _fields(serial[2])
        # averaged() folds over the surviving trials only.
        expected = (serial[0].probes_per_query
                    + serial[2].probes_per_query) / 2
        assert averaged(reports, "probes_per_query") == pytest.approx(
            expected
        )


class TestJournal:
    def test_checkpoints_written_as_trials_finish(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        specs = [_spec(61), _spec(62)]
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            executor.run_trials(specs)
        lines = [
            json.loads(line)
            for line in open(journal_path, encoding="utf-8")
        ]
        assert len(lines) == 2
        assert {line["kind"] for line in lines} == {"report"}
        fingerprints = {line["fingerprint"] for line in lines}
        assert fingerprints == {
            trial_fingerprint(execute_trial, spec) for spec in specs
        }
        digests = {line["digest"] for line in lines}
        assert digests == {
            report.trace_digest for report in _serial([61, 62])
        }

    def test_resume_skips_completed_trials(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        specs = [_spec(71), _spec(72), _spec(73)]
        # "Kill" after two trials: run only a prefix, then resume the
        # full sweep from the journal.
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            executor.run_trials(specs[:2])
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path, resume=True
        ) as executor:
            assert len(executor.journal) == 2
            resumed = executor.run_trials(specs)
        for left, right in zip(resumed, _serial([71, 72, 73])):
            assert _fields(left) == _fields(right)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            executor.run_trials([_spec(81)])
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "report", "fingerpr')  # crash mid-write
        journal = TrialJournal(journal_path, resume=True)
        try:
            assert len(journal) == 1
        finally:
            journal.close()

    def test_fresh_journal_truncates_stale_file(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write("stale\n")
        journal = TrialJournal(journal_path)
        journal.close()
        assert os.path.getsize(journal_path) == 0


class TestStopDrain:
    def test_stop_before_map_raises_sweep_interrupted(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            executor.run_trials([_spec(91)])
            executor.request_stop()
            with pytest.raises(SweepInterrupted):
                executor.run_trials([_spec(91), _spec(92)])
        # The journaled trial survived the interrupt.
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path, resume=True
        ) as executor:
            assert len(executor.journal) == 1

    def test_cached_results_returned_even_after_stop(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        specs = [_spec(95), _spec(96)]
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            executor.run_trials(specs)
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path, resume=True
        ) as executor:
            executor.request_stop()
            # Everything is served from the journal: nothing left to
            # run, so the "interrupted" path never triggers.
            resumed = executor.run_trials(specs)
        for left, right in zip(resumed, _serial([95, 96])):
            assert _fields(left) == _fields(right)


class TestResumeEqualsFresh:
    """The acceptance pin: crash N times, resume, get serial bytes."""

    def test_all_three_crash_modes_killed_and_resumed(self, tmp_path):
        marker = str(tmp_path)
        journal_path = str(tmp_path / "t.journal.jsonl")
        seeds = [101, 102, 103, 104, 105]
        items = _drill(seeds, {
            1: ChaosSpec(mode="raise", times=1, marker_dir=marker, key="r"),
            2: ChaosSpec(mode="exit", times=1, marker_dir=marker, key="e"),
            4: ChaosSpec(
                mode="hang", times=1, marker_dir=marker, key="g",
                hang_seconds=300.0,
            ),
        })
        # First run survives raise + exit crashes, then is "killed"
        # (simulated by running only a prefix of the sweep).
        with SupervisedTrialExecutor(
            workers=2, trial_timeout=5.0, journal=journal_path
        ) as executor:
            executor.map(chaotic_trial, items[:3])
            assert executor.failures == []
        # Resume runs only the missing trials (one of them hangs once).
        with SupervisedTrialExecutor(
            workers=2, trial_timeout=5.0, journal=journal_path, resume=True
        ) as executor:
            resumed = executor.map(chaotic_trial, items)
            assert executor.failures == []
        serial = _serial(seeds)
        assert [r.trace_digest for r in resumed] == [
            r.trace_digest for r in serial
        ]
        for left, right in zip(resumed, serial):
            assert _fields(left) == _fields(right)


class TestGoldenDigestsSupervised:
    """The three pinned digests reproduce under --supervise machinery."""

    DURATION = 400.0

    def _pinned_spec(self, seed, *, percent_bad=0.0,
                     behavior=BadPongBehavior.DEAD, faults=None,
                     probe_retries=0) -> TrialSpec:
        return TrialSpec(
            system=SystemParams(
                network_size=100,
                percent_bad_peers=percent_bad,
                bad_pong_behavior=behavior,
            ),
            protocol=ProtocolParams(
                cache_size=30, probe_retries=probe_retries
            ),
            duration=self.DURATION,
            warmup=0.0,
            seed=seed,
            faults=faults,
            trace_hash=True,
        )

    def test_golden_digests_under_supervision(self):
        specs = [
            self._pinned_spec(7),
            self._pinned_spec(
                11, percent_bad=10.0, behavior=BadPongBehavior.BAD
            ),
            self._pinned_spec(
                7, faults=FaultPlan(loss_rate=0.05), probe_retries=2
            ),
        ]
        with SupervisedTrialExecutor(workers=2) as executor:
            reports = executor.run_trials(specs)
        assert [report.trace_digest for report in reports] == [
            "6433f3abe18fda0f316241089d67313b",
            "23d74325e25c2c9e44279d38a317edbe",
            "6433f3abe18fda0f316241089d67313b",
        ]


class TestManifestVerification:
    def _record_run(self, executor) -> dict:
        recorder = ManifestRecorder()
        with activated(recorder):
            run_guess_config(
                SYSTEM,
                PROTOCOL,
                duration=40.0,
                warmup=5.0,
                trials=2,
                base_seed=88,
                executor=executor,
            )
        return recorder.build(
            profile="smoke", suites=["x"], workers=2,
            wall_clock_seconds=0.0,
        )

    def test_journal_consistent_with_manifest(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            manifest = self._record_run(executor)
        journal = TrialJournal(journal_path, resume=True)
        try:
            assert len(journal) == 2
            assert verify_journal_against_manifest(journal, manifest) == []
        finally:
            journal.close()

    def test_contradicting_digest_detected(self, tmp_path):
        journal_path = str(tmp_path / "t.journal.jsonl")
        with SupervisedTrialExecutor(
            workers=2, journal=journal_path
        ) as executor:
            manifest = self._record_run(executor)
        manifest["configs"][0]["trace_digests"][0] = "0" * 32
        journal = TrialJournal(journal_path, resume=True)
        try:
            problems = verify_journal_against_manifest(journal, manifest)
        finally:
            journal.close()
        assert len(problems) == 1
        assert "contradicts" in problems[0]
