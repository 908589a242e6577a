"""The benchmark driver: one process, one child interpreter at a time.

Two ways in:

* ``python3 -m bench.run --workload W --seed N --seconds S --trace 0|1`` —
  one run of one workload, as ``BENCHMARK.json`` declares it.  The last
  line printed is one JSON object (``correct``, ``attempted``, ``failed``,
  ``metrics``): every end-to-end metric with ``--trace 0``, every
  per-layer metric with ``--trace 1``.
* ``python3 -m bench.run [--seed 7] [--repeats 3] [--sets 1] [--out FILE]
  [--record]`` — all four workloads, round-robin (w1,w2,w3,w4,w1,…) so a
  noisy minute hits every workload equally, then one traced child per
  workload; writes a result file ``bench.compare`` reads.

Children never overlap (this box has two cores; a second child would be
measuring the first).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from bench import RESULTS, ROOT, SRC
from bench import compare, spec
from bench.workloads import WORKLOADS

SCHEMA = "repro-bench/1"
HISTORY = ROOT / "bench" / "history.jsonl"

#: What one untraced full-scale cell costs on the reference box (child
#: start to exit, seconds).  Only used to turn ``--seconds`` into a cell
#: count, so a run's sample size is fixed rather than decided by noise.
NOMINAL_CELL_S = {
    "paper_n5000": 9.0,
    "churn_n10000": 11.6,
    "armed_n500": 12.0,
    "suite_fig9_12": 15.5,
}

#: A single run must end within the contract's 180 s whatever happens.
RUN_DEADLINE_S = 170.0


def run_cell(
    workload: str,
    seed: int,
    *,
    traced: bool = False,
    scale: str = "full",
    extra_targets: Sequence[str] = (),
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one child to completion; a crash comes back as a failed cell."""
    command = [sys.executable, "-m", "bench.cell", workload, "--seed", str(seed), "--scale", scale]
    if traced:
        command.append("--trace")
    for target in extra_targets:
        command += ["--extra-target", target]
    # The child's hash seed is pinned: set iteration order inside the
    # simulator must not be one more source of run-to-run spread.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    problem = None
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        problem = f"child exceeded {timeout:.0f}s"
    else:
        if done.returncode != 0:
            problem = f"child exited {done.returncode}: {done.stderr.strip()[-400:]}"
        else:
            try:
                return json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problem = f"child printed no result: {done.stdout[-200:]!r}"
    return {
        "workload": workload, "seed": seed, "scale": scale, "traced": traced,
        "crashed": True, "ops_attempted": 1, "ops_failed": 1, "failures": [problem],
    }


def summarise(
    workload: str, cells: List[Dict[str, Any]], traced: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """One workload's result: metrics, fingerprints and every failure."""
    failures = [f for c in cells for f in c["failures"]]
    prints = sorted({c["fingerprint"] for c in cells if "fingerprint" in c})
    if len(prints) > 1:
        failures.append(f"repeats of one seed disagree: {prints}")
    result: Dict[str, Any] = {
        "end_to_end": spec.end_to_end(cells),
        "fingerprint": prints[0] if len(prints) == 1 else None,
        "cells": cells,
    }
    if traced is not None:
        failures += traced["failures"]
        if traced.get("fingerprint") not in prints:
            failures.append("the traced child's fingerprint differs: the wrappers are visible")
        walls = result["end_to_end"].get("wall_s")
        if "trace" in traced and walls:
            result["per_layer"] = spec.per_layer(traced, walls["median"])
            result["trace_digest"] = traced["trace_digest"]
            result["missing_targets"] = traced["trace"]["missing_targets"]
        result["traced_cell"] = {k: v for k, v in traced.items() if k != "trace"}
    result["failures"] = failures
    return result


def print_metrics(workload: str, result: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {workload}  fingerprint {result['fingerprint']}")
    for metric in spec.END_TO_END + spec.REPORTED_ONLY:
        row = result["end_to_end"].get(metric.name)
        if row is None:
            continue
        spread = (
            f"  min {row['min']:.6g}  max {row['max']:.6g}  n {row['n']}" if "n" in row
            else f"  {row['ops_failed']} of {row['ops_attempted']} ops"
        )
        gate = f"bound {metric.bound:.0%}" if metric.bound is not None else "not gated"
        print(f"  {metric.name:<14} {row['median']:>12.6g} {metric.unit:<8}{spread}  ({metric.better}, {gate})")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<44} {value:>14.6g} {spec.unit_of(name)}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# One run of one workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------


def contract_run(args) -> int:
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - started)

    workload = args.workload
    count = 1 if args.trace else max(1, int(args.seconds / NOMINAL_CELL_S[workload]))
    cells = []
    for _ in range(count):
        if remaining() <= 0:
            break
        cells.append(run_cell(workload, args.seed, scale=args.scale, timeout=remaining()))
    traced = None
    if args.trace and remaining() > 0:
        traced = run_cell(workload, args.seed, traced=True, scale=args.scale, timeout=remaining())
    result = summarise(workload, cells, traced)
    print_metrics(workload, result)

    if args.trace:
        values = result.get("per_layer")
        units = {name: spec.unit_of(name) for name in values or ()}
    else:
        table = result["end_to_end"]
        values = (
            {m.name: table[m.name]["median"] for m in spec.END_TO_END}
            if all(m.name in table for m in spec.END_TO_END) else None
        )
        units = {m.name: m.unit for m in spec.END_TO_END}
    if not values:
        print("no child produced a measurement", file=sys.stderr)
        return 1
    ran = cells + ([traced] if traced is not None else [])
    attempted = sum(c["ops_attempted"] for c in ran)
    failed = sum(c["ops_failed"] for c in ran)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": attempted,
        # A failure no single op owns (fingerprints disagree) still fails one.
        "failed": max(failed, 1) if result["failures"] else 0,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------


def provenance(args) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "schema": SCHEMA,
        "commit": commit,
        "seed": args.seed,
        "repeats": args.repeats,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_set(args) -> Dict[str, Any]:
    """Every workload ``--repeats`` times round-robin, then one traced child each."""
    cells: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for _ in range(args.repeats):
        for name in WORKLOADS:
            cells[name].append(run_cell(name, args.seed, scale=args.scale))
    results = {}
    for name in WORKLOADS:
        traced = run_cell(name, args.seed, traced=True, scale=args.scale)
        results[name] = summarise(name, cells[name], traced)
        print_metrics(name, results[name])
    return {**provenance(args), "workloads": results}


def full_run(args) -> int:
    RESULTS.mkdir(parents=True, exist_ok=True)
    sets = [run_set(args) for _ in range(args.sets)]
    for index, result in enumerate(sets):
        path = args.out if args.out and len(sets) == 1 else RESULTS / f"set-{index + 1}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        print(f"result written to {path}")
    status = 0
    line = provenance(args)
    line["end_to_end"] = {
        name: {m: row["median"] for m, row in result["end_to_end"].items()}
        for name, result in sets[-1]["workloads"].items()
    }
    if len(sets) > 1:
        # Self-agreement: the same code, measured twice, must pass its own gate.
        report = compare.compare(sets[0], sets[1])
        print(compare.render(report))
        status = compare.exit_code(report)
        line["between_set_spread"] = {
            f"{row['workload']}.{row['metric']}": row["change"] for row in report["rows"]
        }
    if any(r["failures"] for s in sets for r in s["workloads"].values()):
        status = 1
    if args.record:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS, help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: per-layer metrics instead")
    parser.add_argument("--repeats", type=int, default=3, help="without --workload: cells per workload")
    parser.add_argument("--sets", type=int, default=1, help="without --workload: run everything this many times and compare")
    parser.add_argument("--out", help="without --workload: result file (default bench/results/set-N.json)")
    parser.add_argument("--record", action="store_true", help="append the medians to bench/history.jsonl")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the test-suite")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"nothing to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    return contract_run(args) if args.workload else full_run(args)


if __name__ == "__main__":
    sys.exit(main())
