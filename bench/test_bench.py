"""The benchmark's own tests, at tiny scale: ``python -m pytest bench -q``.

Not under ``testpaths``, so the tier-1 suite never collects this file.
Every workload runs twice untraced and once traced (a dozen short child
interpreters, one at a time); the assertions below read those results.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, SRC, compare, run, spec
from bench.trace import STATIC_TARGETS, Tracer, _resolve
from bench.workloads import WORKLOADS

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

BOGUS_TARGET = "repro.no_such_module:Nothing.here"
OPTIONAL_LAYERS = ("faults", "resilience", "baselines.gossip", "freshness")
SEED = 7


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in WORKLOADS:
        cells = [run.run_cell(name, SEED, scale="tiny") for _ in range(2)]
        traced = run.run_cell(
            name, SEED, traced=True, scale="tiny", extra_targets=[BOGUS_TARGET]
        )
        out[name] = run.summarise(name, cells, traced)
    return out


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


def test_benchmark_json_is_what_the_spec_implies(declared):
    assert declared == spec.benchmark_json()


def test_benchmark_json_is_inside_the_contract_limits(declared):
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in declared["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in declared["end_to_end"] if m["name"] == "setup_s"
    ).items()


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_no_operation_fails_and_fingerprints_repeat(results, name):
    result = results[name]
    # Covers: children exit 0, the correctness checks pass, the repeats
    # agree on the fingerprint, and the traced child's fingerprint is theirs.
    assert result["failures"] == []
    assert result["end_to_end"]["failed_share"]["median"] == 0
    assert result["fingerprint"] == result["traced_cell"]["fingerprint"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_reported(results, declared, name):
    result = results[name]
    for metric in declared["end_to_end"]:
        assert result["end_to_end"][metric["name"]]["median"] > 0
    assert set(result["per_layer"]) == {m["name"] for m in declared["per_layer"]}
    for metric in spec.REPORTED_ONLY:
        assert metric.name in result["end_to_end"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_missing_target_is_listed_not_fatal(results, name):
    assert results[name]["missing_targets"] == [BOGUS_TARGET]
    assert results[name]["per_layer"]["trace.missing_targets"] == 1


def test_layer_time_is_attributed(results):
    for result in results.values():
        layers = result["per_layer"]
        assert layers["trace.unattributed_share"] < 0.10
        shares = sum(v for k, v in layers.items() if k.endswith(".self_share"))
        assert shares + layers["trace.unattributed_share"] == pytest.approx(1.0, abs=0.02)


def test_optional_layers_are_invisible_unless_armed(results):
    for name in ("paper_n5000", "churn_n10000", "suite_fig9_12"):
        for layer in OPTIONAL_LAYERS:
            assert results[name]["per_layer"][f"{layer}.calls"] == 0
    for layer in OPTIONAL_LAYERS:
        assert results["armed_n500"]["per_layer"][f"{layer}.calls"] > 0


def test_each_workload_bypasses_what_it_says_it_bypasses(results):
    churn = results["churn_n10000"]["per_layer"]
    assert churn["core.search.calls"] == 0
    assert churn["sim.engine.handler.ping.calls"] > 0
    for name in ("paper_n5000", "churn_n10000", "armed_n500"):
        layers = results[name]["per_layer"]
        assert layers["experiments.calls"] == 0
        # The handler spans see every event the engine fired.
        assert layers["sim.engine.events"] == results[name]["traced_cell"]["events"]
    suite = results["suite_fig9_12"]["per_layer"]
    assert suite["experiments.execute_trial.calls"] == 15
    assert suite["reporting.calls"] > 0


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------


def test_every_patched_attribute_is_restored():
    import repro.core.network_sim as network_sim
    import repro.core.search as search

    before = {dotted: _resolve(dotted)[2] for _, dotted, _, _ in STATIC_TARGETS}
    tracer = Tracer([("trace", BOGUS_TARGET, "span", "extra")])
    with tracer.installed():
        assert search.execute_query is not before["repro.core.search:execute_query"]
        # The by-value binding in the importing module is wrapped too.
        assert network_sim.execute_query is search.execute_query
    assert tracer.missing == [BOGUS_TARGET]
    for dotted, original in before.items():
        assert _resolve(dotted)[2] is original, dotted
    assert network_sim.execute_query is before["repro.core.search:execute_query"]


def test_span_self_time_excludes_children():
    tracer = Tracer()
    aggregates = [tracer._agg("t", f"t.{n}") for n in ("outer", "inner")]

    def inner():
        return True

    traced_inner = tracer._span(inner, "t.inner", aggregates[1])
    traced_outer = tracer._span(lambda: [traced_inner() for _ in range(3)], "t.outer", aggregates[0])
    traced_outer()
    outer, inner_agg = tracer.spans["t.outer"], tracer.spans["t.inner"]
    assert (outer[0], inner_agg[0], inner_agg[4]) == (1, 3, 3)
    assert outer[2] == inner_agg[1] and outer[3] == 3  # child time, child count
    assert tracer._stack == []


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def test_a_crashing_child_is_a_failed_op_not_a_crash():
    crashed = run.run_cell("no_such_workload", SEED, scale="tiny")
    assert crashed["crashed"] and crashed["ops_failed"] == 1
    slow = run.run_cell("armed_n500", SEED, scale="tiny", timeout=0.01)
    assert "exceeded" in slow["failures"][0]
    result = run.summarise("armed_n500", [crashed, slow], None)
    assert result["end_to_end"]["failed_share"]["median"] == 1.0
    assert len(result["failures"]) == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_the_declared_command_prints_the_contract_line(declared, trace):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "armed_n500",
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    # Every metric is also printed by name for a human.
    assert all(m["name"] in done.stdout for m in expected)


def test_the_driver_refuses_a_checkout_without_sources(tmp_path):
    # What the benchmark's own directory looks like when copied out alone.
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "armed_n500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# bench.compare
# ----------------------------------------------------------------------


def _result_file(results):
    return {"seed": SEED, "workloads": copy.deepcopy(results)}


def test_compare_agrees_with_itself(results):
    report = compare.compare(_result_file(results), _result_file(results))
    assert {row["verdict"] for row in report["rows"]} <= {"same", "unresolved"}
    assert all(report["identical"].values())
    assert not any(report["calls"].values())
    assert compare.exit_code(report) == 0
    assert "simulated statistics identical: yes" in compare.render(report)


def test_compare_flags_a_regression_and_a_new_failure(results):
    slower = _result_file(results)
    row = slower["workloads"]["paper_n5000"]["end_to_end"]["probes_per_s"]
    for key in ("median", "min", "max"):
        row[key] /= 2
    report = compare.compare(_result_file(results), slower)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in report["rows"]}
    assert verdicts[("paper_n5000", "probes_per_s")] == "worse"
    assert compare.exit_code(report) == 1

    failing = _result_file(results)
    failing["workloads"]["churn_n10000"]["end_to_end"]["failed_share"]["median"] = 0.5
    failing["workloads"]["churn_n10000"]["fingerprint"] = "changed"
    failing["workloads"]["churn_n10000"]["per_layer"]["core.peer.calls"] += 1
    report = compare.compare(_result_file(results), failing)
    assert compare.exit_code(report) == 1
    assert report["identical"]["churn_n10000"] is False
    assert "core.peer.calls" in report["calls"]["churn_n10000"]
