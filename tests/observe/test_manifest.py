"""Tests for run manifests: capture, round-trips, replay, verification."""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import pytest

from repro.baselines.gossip import GossipPlan
from repro.core.params import BadPongBehavior, ProtocolParams, SystemParams
from repro.errors import ConfigError
from repro.experiments import executor as executor_module
from repro.experiments.executor import SerialTrialExecutor, TrialSpec, execute_trial
from repro.experiments.runner import run_guess_config
from repro.faults.plan import FaultPlan
from repro.freshness.plan import CacheSizing, FreshnessPlan
from repro.observe.manifest import (
    MANIFEST_VERSION,
    PER_TRIAL_FIELDS,
    RETIRED,
    RUN_KEYS,
    ManifestRecorder,
    activated,
    active_manifest_recorder,
    from_jsonable,
    load_manifest,
    main,
    specs_for_entry,
    to_jsonable,
    verify_manifest,
    write_manifest,
)
from repro.resilience import ChurnStorm, FlashCrowd, ResiliencePolicy, ScenarioPlan
from repro.sim.rng import derive_seed

#: Full-featured fault plan: every field populated.
RICH_FAULTS = FaultPlan(loss_rate=0.05)

SMALL_SYSTEM = SystemParams(network_size=40)
SMALL_KW = dict(duration=20.0, warmup=0.0, trials=2, base_seed=9)

#: ``(annotation, value)`` pairs the codec must carry through JSON text.
ROUND_TRIPS = {
    "system-with-enum": (
        SystemParams,
        SystemParams(
            network_size=77,
            percent_bad_peers=12.5,
            bad_pong_behavior=BadPongBehavior.BAD,
        ),
    ),
    "protocol": (ProtocolParams, ProtocolParams(cache_size=17, probe_retries=2)),
    "faults-none": (Optional[FaultPlan], None),
    "faults-rich": (FaultPlan, RICH_FAULTS),
    "scenarios-none": (Optional[ScenarioPlan], None),
    "scenarios": (
        ScenarioPlan,
        ScenarioPlan(
            storms=(
                ChurnStorm(start=100.0, width=20.0, fraction=0.4),
                ChurnStorm(start=200.0, width=5.0, fraction=0.0),
            ),
            crowds=(FlashCrowd(start=100.0, end=300.0, multiplier=5.0),),
        ),
    ),
    "resilience-none": (Optional[ResiliencePolicy], None),
    "resilience-all-on": (ResiliencePolicy, ResiliencePolicy.all_on()),
    # A policy has no fields: it is written as an empty object.
    "resilience-empty": (ResiliencePolicy, ResiliencePolicy()),
    "gossip": (GossipPlan, GossipPlan(fanout=2, ttl=3)),
    "freshness-with-sizing": (
        FreshnessPlan,
        FreshnessPlan(
            notify_budget=3,
            depth=2,
            sizing=CacheSizing(policy="power-law", max_capacity=30),
        ),
    ),
}


class TestParamRoundTrips:
    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_round_trips_through_json(self, case):
        kind, value = ROUND_TRIPS[case]
        data = json.loads(json.dumps(to_jsonable(value)))
        assert from_jsonable(kind, data) == value


class TestRecorderCapture:
    def test_inactive_by_default(self):
        assert active_manifest_recorder() is None

    def test_run_guess_config_records_one_entry_with_digests(self):
        recorder = ManifestRecorder()
        with activated(recorder):
            assert active_manifest_recorder() is recorder
            reports = run_guess_config(
                SMALL_SYSTEM, ProtocolParams(), **SMALL_KW
            )
        assert active_manifest_recorder() is None
        (entry,) = recorder.configs
        assert entry["trials"] == 2
        assert entry["seeds"] == [
            derive_seed(9, "trial:0"), derive_seed(9, "trial:1")
        ]
        # An active recorder forces trace hashing on every trial.
        assert entry["trace_digests"] == [r.trace_digest for r in reports]
        assert all(
            isinstance(digest, str) for digest in entry["trace_digests"]
        )
        assert entry["fingerprints"] == [r.fingerprint() for r in reports]

    def test_untracked_run_records_nothing(self):
        recorder = ManifestRecorder()
        run_guess_config(SMALL_SYSTEM, ProtocolParams(), **SMALL_KW)
        assert recorder.configs == []

    def test_build_shape(self):
        recorder = ManifestRecorder()
        manifest = recorder.build(
            profile="smoke",
            suites=["packet_loss"],
            workers=1,
            wall_clock_seconds=1.5,
            command=["python", "-m", "repro.experiments.run_all"],
        )
        from repro import __version__

        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["package_version"] == __version__
        assert manifest["profile"] == "smoke"
        assert manifest["configs"] == []
        assert manifest["command"][-1] == "repro.experiments.run_all"


@pytest.fixture(scope="module")
def recorded():
    """One tiny recorded run shared by the replay/verify tests."""
    recorder = ManifestRecorder()
    with activated(recorder):
        run_guess_config(
            SMALL_SYSTEM,
            ProtocolParams(probe_retries=1),
            faults=FaultPlan(loss_rate=0.05),
            **SMALL_KW,
        )
    return recorder.build(
        profile="micro", suites=["packet_loss"], workers=1,
        wall_clock_seconds=0.0,
    )


class TestReplayAndVerify:
    def test_write_load_round_trip(self, recorded, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, recorded)
        assert load_manifest(path) == recorded
        # And the manifest survives a plain JSON round-trip.
        assert json.loads(json.dumps(recorded)) == recorded

    def test_replay_reproduces_digests(self, recorded):
        # A version-1 entry has no fingerprints: its digests alone verify.
        v1 = json.loads(json.dumps(recorded))
        del v1["configs"][0]["fingerprints"]
        assert verify_manifest(v1) == []
        v1["configs"][0]["trace_digests"][1] = "0" * 32
        (problem,) = verify_manifest(v1)
        assert problem.startswith("config 0: trial 1: trace digest diverges")

    def test_verify_ok(self, recorded):
        assert verify_manifest(recorded) == []

    def test_verify_flags_tampered_digest(self, recorded):
        tampered = json.loads(json.dumps(recorded))
        tampered["configs"][0]["trace_digests"][0] = "0" * 32
        problems = verify_manifest(tampered)
        assert len(problems) == 1
        assert "trace digest diverges" in problems[0]

    def test_verify_flags_a_dropped_trial_record(self, recorded):
        for key in ("trace_digests", "fingerprints"):
            tampered = json.loads(json.dumps(recorded))
            del tampered["configs"][0][key][1]
            (problem,) = verify_manifest(tampered)
            assert problem.startswith("config 0: records ")
            assert problem.endswith(" for 2 trials")

    def test_verify_flags_tampered_seed(self, recorded):
        tampered = json.loads(json.dumps(recorded))
        tampered["configs"][0]["seeds"][0] += 1
        problems = verify_manifest(tampered)
        assert len(problems) == 1
        assert "re-derive" in problems[0]

    def test_scenario_free_entries_record_nulls(self, recorded):
        (entry,) = recorded["configs"]
        assert entry["scenarios"] is None
        assert entry["resilience"] is None
        assert entry["satisfaction_window"] is None

    def test_cli_ok_and_failure(self, recorded, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_manifest(good, recorded)
        assert main([str(good)]) == 0
        assert "manifest OK" in capsys.readouterr().out

        tampered = json.loads(json.dumps(recorded))
        tampered["configs"][0]["trace_digests"][0] = "0" * 32
        bad = tmp_path / "bad.json"
        write_manifest(bad, tampered)
        assert main([str(bad)]) == 1
        assert "diverge" in capsys.readouterr().out


class TestScenarioReplay:
    """A recorded scenario run must round-trip and replay bit-for-bit."""

    PLAN = ScenarioPlan(
        storms=(ChurnStorm(start=5.0, width=5.0, fraction=0.4),),
        crowds=(FlashCrowd(start=5.0, end=15.0, multiplier=3.0),),
    )

    @pytest.fixture(scope="class")
    def recorded(self):
        recorder = ManifestRecorder()
        with activated(recorder):
            run_guess_config(
                SMALL_SYSTEM,
                ProtocolParams(probe_retries=1),
                scenarios=self.PLAN,
                resilience=ResiliencePolicy.all_on(),
                satisfaction_window=10.0,
                **SMALL_KW,
            )
        return recorder.build(
            profile="micro", suites=["churn_storm"], workers=1,
            wall_clock_seconds=0.0,
        )

    def test_entry_records_the_plan(self, recorded):
        (entry,) = recorded["configs"]
        (spec, _) = specs_for_entry(entry)
        assert spec.scenarios == self.PLAN
        assert spec.resilience == ResiliencePolicy.all_on()
        assert entry["satisfaction_window"] == 10.0

    def test_json_round_trip_preserves_entry(self, recorded):
        assert json.loads(json.dumps(recorded)) == recorded

    def test_replay_reproduces_scenario_digests(self, recorded):
        # Two trials: the replay spreads them over both workers, windows
        # (in the fingerprint) included.
        (entry,) = recorded["configs"]
        assert all(entry["fingerprints"])
        assert verify_manifest(recorded, workers=2) == []

    def test_verify_ok(self, recorded):
        assert verify_manifest(recorded) == []

    def test_old_manifest_without_scenario_keys_still_replays(
        self, recorded
    ):
        # Forward compatibility with pre-resilience manifests: entries
        # that predate the scenario keys replay as scenario-free runs.
        recorder = ManifestRecorder()
        with activated(recorder):
            run_guess_config(SMALL_SYSTEM, ProtocolParams(), **SMALL_KW)
        (entry,) = recorder.configs
        legacy = {
            key: value
            for key, value in entry.items()
            if key not in ("scenarios", "resilience", "satisfaction_window")
        }
        assert verify_manifest({"configs": [legacy]}) == []


def _perturbed_in_workers(spec):
    """:func:`execute_trial` with one probe more, in a worker process only."""
    report = execute_trial(spec)
    if multiprocessing.parent_process() is None:
        return report
    return replace(report, total_probes=report.total_probes + 1)


@pytest.fixture()
def pooled(monkeypatch):
    """The item count of every ``map`` a process pool is handed."""
    mapped = []

    class CountingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            items = list(iterables[0])
            mapped.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
    return mapped


@pytest.fixture(scope="module")
def one_trial_configs():
    """Three configs of one trial each, as a smoke-profile sweep records."""
    recorder = ManifestRecorder()
    with activated(recorder):
        for cache_size in (5, 8, 12):
            run_guess_config(
                SMALL_SYSTEM, ProtocolParams(cache_size=cache_size),
                duration=20.0, warmup=0.0, trials=1, base_seed=cache_size,
            )
    return recorder.build(
        profile="micro", suites=["sweep"], workers=1, wall_clock_seconds=0.0
    )


class TestParallelReplay:
    """A serial run's reports, reproduced trial by trial on a pool: the
    one serial-vs-parallel check."""

    def test_one_trial_configs_replay_as_one_batch_on_the_pool(
        self, one_trial_configs, pooled
    ):
        assert verify_manifest(one_trial_configs, workers=2) == []
        assert pooled == [3]

    def test_a_replay_that_stayed_serial_fails(
        self, one_trial_configs, tmp_path, capsys
    ):
        single = {"configs": one_trial_configs["configs"][:1]}
        path = tmp_path / "single.json"
        write_manifest(path, single)
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main([str(path), "--workers", "2"]) == 1
        assert "no trial reached a worker process" in capsys.readouterr().out

    def test_a_worker_only_perturbation_fails_the_replay(
        self, recorded, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "execute_trial", _perturbed_in_workers)
        assert verify_manifest(recorded) == []
        problems = verify_manifest(recorded, workers=2)
        assert [problem.split(" (")[0] for problem in problems] == [
            "config 0: trial 0: report fingerprint diverges",
            "config 0: trial 1: report fingerprint diverges",
        ]


#: Written by 85f2055, the last commit with the tuning fields a run held
#: at one value (``keep_queries``, ``health_sample_interval``,
#: ``hop_delay``, ``notify_delay``, ``on_overload``, ``reference_files``,
#: ``alpha`` and the resilience specs), running exactly :func:`_armed_run`
#: under an active recorder.  It holds each of those keys at the one
#: value the code now hardwires.
ARMED_MANIFEST = Path(__file__).parent / "data" / "manifest_v1_armed_knobs.json"

#: Written by 49a30fa, the last commit with the burst, jitter, brownout
#: and partition fault models and the backoff knobs: the same run with
#: ``keep_queries`` and a 10 s ``health_sample_interval`` set, which
#: this code can no longer replay.
KEPT_QUERIES_MANIFEST = (
    Path(__file__).parent / "data" / "manifest_v1_armed_loss.json"
)

#: Written by the parent of the commit that introduced the type-driven
#: codec (70e773a, ten hand-written codec functions): the same run with
#: burst, jitter, brownouts and a partition armed, which this code can
#: no longer replay.
RETIRED_ARMED_MANIFEST = Path(__file__).parent / "data" / "manifest_v1_armed.json"

#: The keys :data:`ARMED_MANIFEST` holds that the current classes lack,
#: by their path in an entry.
RETIRED_KEYS = {
    (): ("keep_queries", "health_sample_interval"),
    ("gossip",): ("hop_delay",),
    ("freshness",): ("notify_delay", "on_overload"),
    ("freshness", "sizing"): ("reference_files", "alpha"),
    ("resilience",): ("breaker", "budget", "shedding"),
}

#: Every class a field went from, with the fields in :data:`RETIRED`.
RETIRED_BY_CLASS = {
    ProtocolParams: ("retry_backoff", "retry_base", "retry_multiplier"),
    FaultPlan: ("burst", "jitter", "brownouts", "partitions"),
    TrialSpec: ("keep_queries", "health_sample_interval"),
    GossipPlan: ("hop_delay",),
    FreshnessPlan: ("notify_delay", "on_overload"),
    CacheSizing: ("reference_files", "alpha"),
    ResiliencePolicy: ("breaker", "budget", "shedding"),
}


class _RecordingExecutor(SerialTrialExecutor):
    """Serial executor that remembers the specs it was handed."""

    def __init__(self):
        self.specs = []

    def run_trials(self, specs):
        self.specs.extend(specs)
        return super().run_trials(specs)


def _armed_run(executor):
    """One tiny configuration with all five plans armed."""
    return run_guess_config(
        SystemParams(
            network_size=40,
            percent_bad_peers=5.0,
            bad_pong_behavior=BadPongBehavior.BAD,
        ),
        ProtocolParams(cache_size=12, probe_retries=1, do_backoff=True),
        duration=20.0,
        warmup=5.0,
        trials=2,
        base_seed=14,
        executor=executor,
        faults=FaultPlan(loss_rate=0.05),
        scenarios=ScenarioPlan(
            storms=(ChurnStorm(start=10.0, width=5.0, fraction=0.3),),
            crowds=(FlashCrowd(start=10.0, end=20.0, multiplier=3.0),),
        ),
        resilience=ResiliencePolicy.all_on(),
        satisfaction_window=5.0,
        gossip=GossipPlan(fanout=2, ttl=2),
        freshness=FreshnessPlan(
            notify_budget=3,
            depth=2,
            sizing=CacheSizing(policy="power-law", max_capacity=30),
        ),
    )


def _configs_text(manifest):
    return json.dumps(manifest["configs"], indent=2, sort_keys=True)


def _without_fingerprints(manifest):
    """``manifest`` as version 1 wrote it: no ``fingerprints`` key."""
    manifest = json.loads(json.dumps(manifest))
    for entry in manifest["configs"]:
        del entry["fingerprints"]
    return manifest


def _section(entry, path):
    for key in path:
        entry = entry[key]
    return entry


def _without_retired(manifest):
    """``manifest`` with exactly :data:`RETIRED_KEYS` taken out."""
    manifest = json.loads(json.dumps(manifest))
    for entry in manifest["configs"]:
        for path, keys in RETIRED_KEYS.items():
            for key in keys:
                del _section(entry, path)[key]
    return manifest


class TestLayoutPinnedFromOutside:
    """The v1 layout is whatever the committed parent-written file holds;
    v2 adds only the ``fingerprints`` key."""

    @pytest.fixture(scope="class")
    def armed(self):
        recorder, executor = ManifestRecorder(), _RecordingExecutor()
        with activated(recorder):
            _armed_run(executor)
        manifest = recorder.build(
            profile="micro", suites=["armed"], workers=1,
            wall_clock_seconds=0.0,
        )
        return manifest, executor.specs

    def test_recorder_emits_the_parents_configs_bytes(self, armed):
        # Version 2 adds the fingerprints; every other byte is version 1's.
        manifest, _ = armed
        assert _configs_text(_without_fingerprints(manifest)) == _configs_text(
            _without_retired(load_manifest(ARMED_MANIFEST))
        )

    def test_specs_for_entry_rebuilds_the_specs_that_ran(self, armed):
        _, ran = armed
        (entry,) = load_manifest(ARMED_MANIFEST)["configs"]
        rebuilt = specs_for_entry(entry)
        assert rebuilt == ran
        # repr(spec) is the supervisor's journal fingerprint.
        assert [repr(spec) for spec in rebuilt] == [repr(spec) for spec in ran]
        assert all(spec.freshness.sizing.max_capacity == 30 for spec in ran)

    def test_parent_written_manifest_verifies(self):
        assert verify_manifest(load_manifest(ARMED_MANIFEST)) == []

    def test_entry_keys_are_the_spec_fields(self, armed):
        # Adding a TrialSpec field adds its manifest key with no edit in
        # manifest.py or runner.py; this fails if that stops being true.
        manifest, _ = armed
        (entry,) = manifest["configs"]
        spec_fields = {spec.name for spec in fields(TrialSpec)}
        assert set(PER_TRIAL_FIELDS) < spec_fields
        assert set(entry) == (spec_fields - set(PER_TRIAL_FIELDS)) | set(RUN_KEYS)


def _set(path, value):
    """Mutation: assign ``value`` at ``path`` (keys / indices) of an entry."""

    def mutate(entry):
        *parents, last = path
        for key in parents:
            entry = entry[key]
        entry[last] = value

    return mutate


def _drop(key):
    return lambda entry: entry.pop(key)


#: ``id -> (mutation of the armed entry, text the ConfigError must carry)``.
MALFORMED = {
    "unknown-plan-field": (_set(("gossip", "hops"), 3), "gossip.hops"),
    "unknown-entry-key": (_set(("schedulr",), "heap"), "schedulr"),
    "unknown-nested-field": (
        _set(("scenarios", "storms", 0, "bogus"), 1),
        "scenarios.storms[0].bogus",
    ),
    "unknown-enum-name": (
        _set(("system", "bad_pong_behavior"), "NOPE"),
        "system.bad_pong_behavior",
    ),
    "enum-not-a-name": (
        _set(("system", "bad_pong_behavior"), ["DEAD"]),
        "system.bad_pong_behavior",
    ),
    "object-where-list": (
        _set(("scenarios", "storms"), {"start": 1.0, "width": 2.0}),
        "scenarios.storms",
    ),
    "retired-key-set": (_set(("faults", "jitter"), 0.02), "faults.jitter"),
    "retired-trial-key-set": (_set(("keep_queries",), True), "keep_queries"),
    "retired-delay-set": (_set(("gossip", "hop_delay"), 0.1), "gossip.hop_delay"),
    "retired-nested-key-set": (
        _set(("freshness", "sizing", "alpha"), 3.0),
        "freshness.sizing.alpha",
    ),
    "retired-tuning-set": (
        _set(("resilience", "breaker", "cooldown"), 10.0),
        "resilience.breaker",
    ),
    "list-where-object": (_set(("scenarios",), []), "scenarios"),
    "scalar-where-object": (_set(("freshness", "sizing"), 7), "freshness.sizing"),
    "missing-required-field": (_drop("duration"), "duration"),
    "missing-run-key": (_drop("trials"), "trials"),
}


class TestMalformedEntriesFailTyped:
    @pytest.fixture()
    def manifest(self):
        return load_manifest(ARMED_MANIFEST)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_decoder_names_the_path(self, manifest, case):
        mutate, where = MALFORMED[case]
        (entry,) = manifest["configs"]
        mutate(entry)
        with pytest.raises(ConfigError) as caught:
            specs_for_entry(entry)
        assert where in str(caught.value)
        (problem,) = verify_manifest(manifest)
        assert problem == f"config 0: {caught.value}"

    def test_cli_exits_1_with_a_problem_line(self, manifest, tmp_path, capsys):
        manifest["configs"][0]["gossip"]["hops"] = 3
        path = tmp_path / "bad.json"
        write_manifest(path, manifest)
        assert main([str(path)]) == 1
        assert capsys.readouterr().out.startswith("config 0: gossip.hops")


class TestRetiredKeys:
    """A field that went still loads at the one value the code runs."""

    def test_table_names_exactly_the_retired_keys(self):
        assert {
            name: tuple(keys) for name, keys in RETIRED.items()
        } == {kind.__name__: keys for kind, keys in RETIRED_BY_CLASS.items()}

    def test_retired_keys_at_their_unset_values_load(self):
        (entry,) = load_manifest(ARMED_MANIFEST)["configs"]
        for path, keys in RETIRED_KEYS.items():
            assert set(keys) <= set(_section(entry, path))
        (first, _) = specs_for_entry(entry)
        assert first.resilience == ResiliencePolicy.all_on()
        assert first.gossip == GossipPlan(fanout=2, ttl=2)
        assert first.freshness == FreshnessPlan(
            notify_budget=3,
            depth=2,
            sizing=CacheSizing(policy="power-law", max_capacity=30),
        )

    def test_a_retired_key_alone_loads_at_its_unset_value(self):
        spec = TrialSpec(SMALL_SYSTEM, ProtocolParams(), 20.0, 0.0, seed=1)
        for kind, keys in RETIRED_BY_CLASS.items():
            base = to_jsonable(spec) if kind is TrialSpec else {}
            for key in keys:
                retired = {**base, key: RETIRED[kind.__name__][key]}
                assert from_jsonable(kind, retired) == from_jsonable(kind, base)

    def test_a_set_retired_key_fails_typed_with_its_path(self):
        manifest = load_manifest(RETIRED_ARMED_MANIFEST)
        (entry,) = manifest["configs"]
        with pytest.raises(ConfigError) as caught:
            specs_for_entry(entry)
        assert str(caught.value).startswith("faults.brownouts: ")
        assert verify_manifest(manifest) == [f"config 0: {caught.value}"]

    def test_kept_queries_and_a_set_sample_interval_fail_typed(self):
        # Keys decode in the file's (sorted) order: the sample interval
        # fails first, and without it ``keep_queries`` does.
        manifest = load_manifest(KEPT_QUERIES_MANIFEST)
        (entry,) = manifest["configs"]
        assert (entry["keep_queries"], entry["health_sample_interval"]) == (True, 10.0)
        with pytest.raises(ConfigError) as caught:
            specs_for_entry(entry)
        assert str(caught.value).startswith("health_sample_interval: ")
        assert verify_manifest(manifest) == [f"config 0: {caught.value}"]
        del entry["health_sample_interval"]
        with pytest.raises(ConfigError, match=r"^keep_queries: retired field"):
            specs_for_entry(entry)
        # Every key the older commits retired still loads at its value.
        del entry["keep_queries"]
        (first, _) = specs_for_entry(entry)
        assert first.faults == FaultPlan(loss_rate=0.05)
        assert first.protocol.probe_retries == 1
