"""Metric definitions: names, units, directions, bounds, and how each is computed.

``python -m bench.spec`` prints the ``BENCHMARK.json`` these definitions
imply; ``bench/test_bench.py`` asserts the committed file matches.

End-to-end metrics are medians over a run's cells (one cell = one fresh
child interpreter).  Two things decide which of them can be gated across
the driver's runs, each of which has another seed and another minute:

* The work in a fixed stretch of simulated time depends on the seed — on
  ``paper_n5000`` a few dozen exhaustive queries of ~5000 probes each
  dominate, and their count moves ``wall_s`` by an inter-quartile 13 %
  between seeds with the code unchanged — while host time per simulated
  probe does not.  So the gated throughput figure is ``probes_per_s``.
* This box's speed wanders by tens of percent over minutes, so the gated
  times are expressed at reference host speed (``bench.cell.HostSpeed``).

``wall_s``, ``sim_s_per_s``, ``host_speed`` and ``failed_share`` are still
computed, printed and stored with every result (with each cell's raw
seconds), and same-seed comparisons (``bench.compare``) judge ``wall_s``
and ``sim_s_per_s`` too.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from bench.trace import HANDLER_LABELS, LAYERS, percentile
from bench.workloads import WORKLOADS

#: Seconds of measurement per driver run; ``bench.run`` turns it into a
#: per-workload cell count.
RUN_SECONDS = 30


#: How strongly the simulator follows the calibration kernel when the host
#: slows down: over 90 cells in which the kernel's speed ranged 0.61–1.26,
#: log(probes/s) against log(kernel speed) had slope 0.62–0.94 per workload
#: (the kernel is the more compute-bound of the two, so it over-reacts).
HOST_SENSITIVITY = 0.8


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (None: reported, compared on equal seeds, but not gated across seeds).
    bound: Optional[float]


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("probes_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
)

#: Seed-dependent or degenerate (zero) figures: reported, never gated.
REPORTED_ONLY: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", None),
    Metric("sim_s_per_s", "sim-s/s", "higher", None),
    Metric("host_speed", "ratio", "higher", None),
    Metric("failed_share", "ratio", "lower", None),
)

# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


def cell_values(cell: Dict[str, Any]) -> Dict[str, float]:
    """One cell's end-to-end readings.

    Every time is at reference host speed: raw seconds times
    ``host_speed ** HOST_SENSITIVITY`` (see ``bench.cell.HostSpeed``).
    The raw seconds stay in the result file, in the cell's own record.
    """
    factor = cell["host_speed"] ** HOST_SENSITIVITY
    wall_s = cell["wall_s"] * factor
    return {
        "setup_s": cell["setup_s"] * factor,
        "probes_per_s": cell["probes"] / wall_s,
        "peak_rss_mb": cell["peak_rss_mb"],
        "wall_s": wall_s,
        "sim_s_per_s": cell["sim_s"] / wall_s,
        "host_speed": cell["host_speed"],
    }


def stat(values: Sequence[float]) -> Dict[str, Any]:
    """Median with min, max, sample count and the raw values."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def end_to_end(cells: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end figure of one workload from its untraced cells.

    Crashed cells carry no timings; they count only in ``failed_share``.
    """
    timed = [cell_values(c) for c in cells if "wall_s" in c]
    out = {name: stat([v[name] for v in timed]) for name in timed[0]} if timed else {}
    attempted = sum(c["ops_attempted"] for c in cells)
    failed = sum(c["ops_failed"] for c in cells)
    out["failed_share"] = {
        "median": failed / attempted, "ops_failed": failed, "ops_attempted": attempted,
    }
    return out


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------

#: ``(metric name, span name, field)`` extras read straight off one span.
_SPAN_EXTRAS = (
    ("sim.scheduler.push.calls", "sim.scheduler.push", "calls"),
    ("sim.scheduler.pop.calls", "sim.scheduler.pop", "calls"),
    ("core.network_sim.init_s", "core.network_sim.init", "total_s"),
    ("core.peer.receive_probe.calls", "core.peer.receive_probe", "calls"),
    ("core.peer.make_pong.calls", "core.peer.make_pong", "calls"),
    ("core.link_cache.insert.calls", "core.link_cache.insert", "calls"),
    ("core.policies.choose_victim_from.calls", "core.policies.choose_victim_from", "calls"),
    ("core.policies.select_top.calls", "core.policies.select_top", "calls"),
    ("sim.rng.stream.calls", "sim.rng.stream", "calls"),
    ("workload.build_library.self_s", "workload.build_library", "self_s"),
    ("experiments.execute_trial.calls", "experiments.execute_trial", "calls"),
    ("observe.manifest.fold.calls", "observe.manifest.fold", "calls"),
)

#: ``(metric name, report counter)`` extras copied from the simulation's report.
_COUNTER_EXTRAS = (
    ("baselines.gossip.pushes", "gossip_pushes"),
    ("baselines.gossip.rumors", "gossip_rumors"),
    ("freshness.notices", "freshness_notices"),
    ("freshness.purges", "freshness_purges"),
)


def unit_of(name: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (
        ("_s", "s"), ("_share", "ratio"), ("_ratio", "ratio"), ("_ms", "ms"), ("_ns", "ns"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced: Dict[str, Any], untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one workload from its traced cell.

    ``self_share`` is of the traced build + run + report time (the two
    root spans), so the layers, the tracer's own cost and the
    unattributed rest sum to 1.
    """
    trace = traced["trace"]
    spans, total = trace["spans"], trace["root_total_s"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        row = trace["layers"][layer]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.self_share"] = row["self_s"] / total
    handlers = [spans.get(f"sim.engine.handler.{label}", {}) for label in HANDLER_LABELS]
    for label, span in zip(HANDLER_LABELS, handlers):
        out[f"sim.engine.handler.{label}.calls"] = span.get("calls", 0)
        out[f"sim.engine.handler.{label}.self_s"] = span.get("self_s", 0.0)
    other = spans.get("sim.engine.handler.other", {}).get("calls", 0)
    out["sim.engine.events"] = other + sum(s.get("calls", 0) for s in handlers)
    for name, span, field in _SPAN_EXTRAS:
        out[name] = spans.get(span, {}).get(field, 0)
    queries = trace["samples_ns"].get("core.search.execute_query", [])
    out["core.search.execute_query.p50_ms"] = (percentile(queries, 50) or 0) / 1e6
    out["core.search.execute_query.p98_ms"] = (percentile(queries, 98) or 0) / 1e6
    out["core.search.execute_query.samples"] = len(queries)
    counters = traced["counters"]
    probes = counters["transport_probes_sent"]
    undelivered = counters["transport_timeouts"] + counters["transport_refusals"]
    out["network.transport.delivered_ratio"] = (probes - undelivered) / probes if probes else 0.0
    inserts = spans.get("core.link_cache.insert", {})
    out["core.link_cache.insert.admitted_ratio"] = (
        inserts["returned_true"] / inserts["calls"] if inserts.get("calls") else 0.0
    )
    for name, counter in _COUNTER_EXTRAS:
        out[name] = counters[counter]
    out["trace.self_s"] = trace["tracer_self_s"]
    out["trace.self_share"] = trace["tracer_self_s"] / total
    out["trace.unattributed_share"] = trace["unattributed_s"] / total
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall_s
    out["trace.span_cost_ns"] = trace["span_cost_ns"]
    out["trace.spans"] = trace["span_count"]
    out["trace.missing_targets"] = len(trace["missing_targets"])
    return out


def per_layer_names() -> List[str]:
    """The per-layer metric names, without running anything."""
    idle = {
        "wall_s": 1.0,
        "counters": defaultdict(int),
        "trace": {
            "spans": {}, "samples_ns": {}, "missing_targets": [],
            "layers": {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS},
            "root_total_s": 1.0, "tracer_self_s": 0.0, "unattributed_s": 0.0,
            "span_cost_ns": 0.0, "span_count": 0,
        },
    }
    return list(per_layer(idle, 1.0))


#: Per-layer figures where more is better; everything else is a cost.
_HIGHER = (
    "network.transport.delivered_ratio",
    "core.link_cache.insert.admitted_ratio",
    "core.search.execute_query.samples",
)


def benchmark_json() -> Dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": n, "unit": unit_of(n), "better": "higher" if n in _HIGHER else "lower"}
            for n in per_layer_names()
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
