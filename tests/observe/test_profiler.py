"""Tests for phase-structured profiling and its one trial sample."""

from __future__ import annotations

from repro.core.params import ProtocolParams, SystemParams
from repro.experiments.executor import TrialSpec, execute_trial
from repro.experiments.runner import run_guess_config
from repro.observe.profiler import (
    GLOBAL_PHASE,
    Profiler,
    activated,
    active_profiler,
)


class TestPhases:
    def test_phase_wall_time_accumulates(self):
        profiler = Profiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        assert profiler.phases == ["a"]
        assert profiler._stats["a"].wall_seconds >= 0.0

    def test_samples_attribute_to_current_phase(self):
        profiler = Profiler()
        with profiler.phase("suite"):
            profiler.record_trial(events=100, wall_seconds=0.5, sim_seconds=10.0)
            profiler.record_trial(events=4, wall_seconds=0.25, sim_seconds=1.0)
        profiler.record_trial(events=7, wall_seconds=0.1, sim_seconds=1.0)
        assert profiler.phases == ["suite", GLOBAL_PHASE]
        suite = profiler._stats["suite"]
        assert suite.events == 104
        assert suite.trials == 2
        assert profiler._stats[GLOBAL_PHASE].events == 7

    def test_nested_phase_restores_previous(self):
        profiler = Profiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                profiler.record_trial(
                    events=1, wall_seconds=0.1, sim_seconds=1.0
                )
            profiler.record_trial(events=2, wall_seconds=0.1, sim_seconds=1.0)
        assert profiler._stats["inner"].events == 1
        assert profiler._stats["outer"].events == 2
        assert profiler.wall_seconds("outer") >= profiler.wall_seconds("inner")
        assert profiler.wall_seconds("missing") == 0.0

    def test_events_per_second(self):
        # The table's rates are per second of trial wall time.
        profiler = Profiler()
        profiler.record_trial(events=100, wall_seconds=0.5, sim_seconds=10.0)
        (row,) = [
            line for line in profiler.render().splitlines()
            if GLOBAL_PHASE in line
        ]
        assert [float(cell) for cell in row.split("|")[4:6]] == [200.0, 20.0], row

    def test_render_lists_phases(self):
        profiler = Profiler()
        with profiler.phase("alpha"):
            profiler.record_trial(
                events=50, wall_seconds=0.5, sim_seconds=25.0
            )
        with profiler.phase("beta"):
            pass
        text = profiler.render()
        assert "profile report" in text
        assert "alpha" in text
        assert "beta" in text
        assert "events/s" in text
        # A phase without trial samples renders nan rates, not a crash.
        assert "nan" in text


class TestActivation:
    def test_inactive_by_default(self):
        assert active_profiler() is None

    def test_activated_installs_and_restores(self):
        profiler = Profiler()
        with activated(profiler) as installed:
            assert installed is profiler
            assert active_profiler() is profiler
            inner = Profiler()
            with activated(inner):
                assert active_profiler() is inner
            assert active_profiler() is profiler
        assert active_profiler() is None


def _spec(trace_hash: bool = False) -> TrialSpec:
    return TrialSpec(
        SystemParams(network_size=40),
        ProtocolParams(),
        duration=30.0,
        warmup=0.0,
        seed=3,
        trace_hash=trace_hash,
    )


class TestEngineHook:
    def test_simulator_records_engine_samples(self):
        profiler = Profiler()
        with activated(profiler):
            execute_trial(_spec())
        stats = profiler._stats[GLOBAL_PHASE]
        assert stats.trials == 1
        assert stats.events > 0
        assert stats.sim_seconds == 30.0
        assert stats.trial_wall > 0.0

    def test_profiling_does_not_change_results(self):
        plain = execute_trial(_spec(trace_hash=True))
        with activated(Profiler()):
            profiled = execute_trial(_spec(trace_hash=True))
        assert plain.trace_digest is not None
        assert plain == profiled


class TestExecutorHook:
    def test_run_guess_config_records_batches_and_engine(self):
        profiler = Profiler()
        with activated(profiler):
            reports = run_guess_config(
                SystemParams(network_size=40),
                ProtocolParams(),
                duration=20.0,
                warmup=0.0,
                trials=2,
            )
        assert len(reports) == 2
        stats = profiler._stats[GLOBAL_PHASE]
        # Serial trials run in-process: one sample per trial.
        assert stats.trials == 2
        assert stats.sim_seconds == 40.0
