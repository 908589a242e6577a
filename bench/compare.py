"""Compare two result files: ``python -m bench.compare A.json B.json``.

One row per workload × end-to-end metric with both medians, their
min–max, the bound from ``BENCHMARK.json`` and a verdict for B against A:

* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound and the two ranges overlap, so the instrument cannot tell.

``wall_s`` and ``sim_s_per_s`` depend on the seed (see ``bench.spec``);
they are judged, against the ``probes_per_s`` bound, only when both files
used the same seed.  Also prints whether the simulated statistics are
identical (the fingerprints — a pure speed-up must answer yes) and every
per-layer ``.calls`` count that differs.  Exits non-zero on a ``worse`` or
on a higher ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from bench import ROOT


def load_bounds() -> Dict[str, Dict[str, Any]]:
    """``{metric: {"better", "bound", "unit"}}`` from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    bounds = {m["name"]: m for m in declared}
    throughput = bounds["probes_per_s"]["bound"]
    # Equal seeds do equal work, so these are the throughput figure again.
    bounds["wall_s"] = {"better": "lower", "bound": throughput, "unit": "s", "same_seed": True}
    bounds["sim_s_per_s"] = {"better": "higher", "bound": throughput, "unit": "sim-s/s", "same_seed": True}
    return bounds


def _verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        verdict = "unresolved"
    elif change > bound:
        verdict = "worse"
    elif change < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"change": change, "spread": spread, "verdict": verdict}


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Rows, fingerprint agreement and ``.calls`` differences for B against A."""
    bounds = load_bounds()
    same_seed = a["seed"] == b["seed"]
    rows: List[Dict[str, Any]] = []
    identical: Dict[str, Optional[bool]] = {}
    calls: Dict[str, Dict[str, Any]] = {}
    failed: Dict[str, Dict[str, float]] = {}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, declared in bounds.items():
            if declared.get("same_seed") and not same_seed:
                continue
            sa, sb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if not sa or not sb:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": declared["unit"],
                "bound": declared["bound"], "a": sa, "b": sb,
                **_verdict(sa, sb, declared["better"], declared["bound"]),
            })
        failed[name] = {
            "a": wa["end_to_end"]["failed_share"]["median"],
            "b": wb["end_to_end"]["failed_share"]["median"],
        }
        prints = (wa.get("fingerprint"), wb.get("fingerprint"))
        identical[name] = None if not same_seed or None in prints else prints[0] == prints[1]
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        calls[name] = {
            key: (la[key], lb.get(key))
            for key in la
            if key.endswith(".calls") and la[key] != lb.get(key)
        }
    return {
        "rows": rows, "identical": identical, "calls": calls, "failed_share": failed,
        "same_seed": same_seed,
    }


def exit_code(report: Dict[str, Any]) -> int:
    worse = any(row["verdict"] == "worse" for row in report["rows"])
    more_failures = any(f["b"] > f["a"] for f in report["failed_share"].values())
    return 1 if worse or more_failures else 0


def render(report: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<13} {'A median':>11} {'A min–max':>21} "
        f"{'B median':>11} {'B min–max':>21} {'worse by':>8} {'bound':>6}  verdict"
    ]
    for row in report["rows"]:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<13} {a['median']:>11.5g} "
            f"{a['min']:>10.5g}–{a['max']:<10.5g} {b['median']:>11.5g} "
            f"{b['min']:>10.5g}–{b['max']:<10.5g} {row['change']:>+8.1%} {row['bound']:>6.0%}  "
            f"{row['verdict']} ({row['unit']})"
        )
    for name, shares in report["failed_share"].items():
        lines.append(f"{name:<14} failed_share  A {shares['a']:.4f}  B {shares['b']:.4f}")
    for name, same in report["identical"].items():
        answer = {True: "yes", False: "no", None: "not comparable (seeds differ or a fingerprint is missing)"}[same]
        lines.append(f"{name:<14} simulated statistics identical: {answer}")
    for name, diffs in report["calls"].items():
        if not report["same_seed"]:
            break
        if not diffs:
            lines.append(f"{name:<14} per-layer .calls identical")
        for key, (va, vb) in diffs.items():
            lines.append(f"{name:<14} {key}: {va} -> {vb}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    files = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    report = compare(*files)
    print(render(report))
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
