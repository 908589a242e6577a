"""Tests for profiles, the config runner, and result rendering."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams, SystemParams
from repro.errors import ConfigError
from repro.experiments.profiles import PROFILES, Profile, get_profile
from repro.experiments.runner import (
    ExperimentResult,
    averaged,
    run_guess_config,
)


class TestProfiles:
    def test_registry_names(self):
        assert set(PROFILES) == {"smoke", "quick", "report", "full"}
        for name, profile in PROFILES.items():
            assert profile.name == name

    def test_get_profile(self):
        assert get_profile("smoke").name == "smoke"

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_profile("nope")

    def test_total_time(self):
        profile = get_profile("smoke")
        assert profile.total_time == profile.duration + profile.warmup

    def test_scales_ordered(self):
        smoke, quick, full = (
            get_profile("smoke"), get_profile("quick"), get_profile("full"),
        )
        assert smoke.duration < quick.duration <= full.duration
        assert max(smoke.network_sizes) < max(full.network_sizes)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Profile(
                name="x", duration=0.0, warmup=0.0, trials=1,
                network_sizes=(10,), reference_size=10,
                cache_sizes=(5,), ping_intervals=(10.0,),
                baseline_queries=10, max_extent=10,
            )


class TestRunGuessConfig:
    def test_returns_one_report_per_trial(self):
        reports = run_guess_config(
            SystemParams(network_size=40, query_rate=0.02),
            ProtocolParams(cache_size=8),
            duration=150.0,
            warmup=50.0,
            trials=2,
        )
        assert len(reports) == 2
        assert all(r.queries > 0 for r in reports)

    def test_trials_use_distinct_seeds(self):
        reports = run_guess_config(
            SystemParams(network_size=40, query_rate=0.02),
            ProtocolParams(cache_size=8),
            duration=150.0,
            warmup=0.0,
            trials=2,
        )
        assert reports[0].total_probes != reports[1].total_probes

    def test_base_seed_reproducible(self):
        runs = [
            run_guess_config(
                SystemParams(network_size=40, query_rate=0.02),
                ProtocolParams(cache_size=8),
                duration=100.0,
                warmup=0.0,
                base_seed=5,
            )[0].total_probes
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_averaged(self):
        reports = run_guess_config(
            SystemParams(network_size=40, query_rate=0.02),
            ProtocolParams(cache_size=8),
            duration=150.0,
            warmup=0.0,
            trials=2,
        )
        value = averaged(reports, "probes_per_query")
        individual = [r.probes_per_query for r in reports]
        assert min(individual) <= value <= max(individual)


class TestExperimentResult:
    def test_render_table(self):
        result = ExperimentResult(
            experiment_id="t", title="Title",
            columns=("a", "b"), rows=((1, 2),),
        )
        text = result.render()
        assert "== t: Title ==" in text
        assert "| a | b |" in text

    def test_render_series(self):
        result = ExperimentResult(
            experiment_id="f", title="Fig",
            series={"s": [(1.0, 2.0)]}, x_label="x",
        )
        assert "s" in result.render()

    def test_render_notes(self):
        result = ExperimentResult(
            experiment_id="f", title="Fig", notes="shape note"
        )
        assert "expected shape: shape note" in result.render()
