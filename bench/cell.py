"""One benchmark cell: one workload, one seed, one fresh interpreter.

``python -m bench.cell <workload> --seed S [--trace] [--scale tiny]``
prints exactly one JSON line.  A fresh interpreter per cell keeps every
cache cold exactly as a user's run is, makes ``ru_maxrss`` the peak of
this cell alone, and lets the driver count a crash as one failed
operation instead of dying with it.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports + construction

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import sys
from typing import Any, Dict, List, Optional

from bench import RESULTS, SRC
from bench.workloads import SUITE_ARGV, WORKLOADS, Workload

#: Report fields left out of the fingerprint: the digest exists only when
#: ``trace_hash`` is on, and the traced child turns it on.
UNFINGERPRINTED = ("trace_digest",)

#: Simulated-work counters copied from the report(s) into the result.
COUNTERS = (
    "queries", "pings_sent", "deaths", "births",
    "transport_probes_sent", "transport_timeouts", "transport_refusals",
    "gossip_pushes", "gossip_rumors", "freshness_notices", "freshness_purges",
    "probe_retries", "ping_retries",
)

#: The timed region of a single-simulation workload is cut into this many
#: equal ``run()`` calls so host speed can be sampled between them;
#: back-to-back ``run()`` calls cover contiguous windows, so the simulation
#: is the one a single call would produce.
SLICES = 8

#: Calibration-kernel steps per second on the reference box (this 2-core
#: VM on a quiet minute); ``host_speed`` 1.0 means "as fast as that".
REFERENCE_STEPS_PER_S = 4.0e6

#: Kernel steps spent per cell, spread over its sampling windows (≈2 s).
CALIBRATION_STEPS = 8_000_000

#: Configurations ``policy_comparison`` runs (5 policies x 3 roles).
SUITE_CONFIGS = 15

#: ``out.txt`` carries host time in "(12.3s)" and in everything from the
#: wall-clock summary on (the summary and the profile report).
_SUITE_ELAPSED = re.compile(r"\(\d+\.\d+s\)")
_SUITE_TAIL = "-- wall-clock summary --"


class _Slot:
    __slots__ = ("hits", "weight")

    def __init__(self) -> None:
        self.hits = 0
        self.weight = 1.0


class HostSpeed:
    """Samples the host's speed between slices of the timed region.

    This box's speed wanders by tens of percent over minutes (a run of
    the same work took 28–40 s within ten minutes), so a time measured
    here says as much about the minute as about the code.  A fixed
    pure-Python kernel — attribute updates on small objects visited in a
    fixed pseudo-random order, plus dict stores: the simulator's diet in
    small, ≈1 MB so it does not move the peak RSS — is run in short windows
    before, between and after the timed slices.  ``speed`` is kernel steps
    per second over all windows, relative to the reference box; times are
    reported multiplied by it ("seconds at reference host speed").

    The windows are outside every timed interval.  ``windows=0`` (the
    traced child) samples nothing and reports speed 1.
    """

    def __init__(self, windows: int, scale: str = "full", slots: int = 16384) -> None:
        budget = CALIBRATION_STEPS if scale == "full" else CALIBRATION_STEPS // 20
        self._steps = budget // windows if windows else 0
        self._pool = [_Slot() for _ in range(slots)] if windows else []
        self.seconds = 0.0
        self.steps = 0

    def sample(self) -> None:
        if not self._steps:
            return
        pool, mask = self._pool, len(self._pool) - 1
        recent: Dict[int, _Slot] = {}
        total = 0.0
        index = 1
        started = time.perf_counter()
        for _ in range(self._steps):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            slot = pool[index & mask]
            slot.hits += 1
            recent[index & 1023] = slot
            total += slot.weight
        self.seconds += time.perf_counter() - started
        self.steps += self._steps

    @property
    def speed(self) -> float:
        if not self.steps:
            return 1.0
        return self.steps / self.seconds / REFERENCE_STEPS_PER_S


def fingerprint(payload: Any) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_scalars(report) -> Dict[str, Any]:
    """The report's scalar fields (what two runs must agree on)."""
    return {
        name: value
        for name, value in vars(report).items()
        if name not in UNFINGERPRINTED
        and (value is None or isinstance(value, (bool, int, float, str)))
    }


def _run_simulation(workload: Workload, args, tracer) -> Dict[str, Any]:
    population, duration = workload.sizes[args.scale]
    root = tracer.root if tracer is not None else contextlib.nullcontext
    with root():
        sim = workload.build(population, args.seed, tracer is not None)
    setup_s = time.perf_counter() - _T0
    host = HostSpeed(0 if tracer is not None else SLICES + 1, args.scale)
    wall_s = 0.0
    with root():
        host.sample()
        for _ in range(SLICES):
            started = time.perf_counter()
            sim.run(duration / SLICES)
            wall_s += time.perf_counter() - started
            host.sample()
        started = time.perf_counter()
        report = sim.report()
        wall_s += time.perf_counter() - started
    failures = workload.check(report, sim, population)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "host_speed": host.speed,
        "sim_s": duration,
        "events": sim.engine.events_executed,
        "ops_attempted": 1,
        "ops_failed": 1 if failures else 0,
        "failures": failures,
        "counters": {name: getattr(report, name) for name in COUNTERS},
        "trace_digest": report.trace_digest,
        "fingerprint": fingerprint({
            "report": report_scalars(report),
            "events_executed": sim.engine.events_executed,
            "probes_sent": sim.transport.probes_sent,
        }),
    }


@contextlib.contextmanager
def _seeded_suite(seed: int, sim_s: Optional[float], sink: List[Any], host: HostSpeed):
    """Feed ``--seed`` into the CLI workload, which has no seed flag.

    ``policy_comparison`` calls ``run_guess_config`` with hard-coded
    ``base_seed`` salts; this offsets each by the benchmark seed, collects
    the returned reports for the correctness checks, samples the host's
    speed before each configuration, and (tiny scale only) shortens the
    trials.  The CLI, its flags and its outputs are untouched.
    """
    from repro.experiments import policy_comparison

    original = policy_comparison.run_guess_config

    def seeded(system, protocol, **kwargs):
        host.sample()
        kwargs["base_seed"] = kwargs.get("base_seed", 0) + seed
        if sim_s is not None:
            kwargs["duration"], kwargs["warmup"] = 0.8 * sim_s, 0.2 * sim_s
        reports = original(system, protocol, **kwargs)
        sink.extend(reports)
        return reports

    policy_comparison.run_guess_config = seeded
    try:
        yield
    finally:
        policy_comparison.run_guess_config = original


def _run_suite(workload: Workload, args, tracer) -> Dict[str, Any]:
    from repro.experiments import run_all
    from repro.observe.manifest import load_manifest

    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    manifest_path, output_path = scratch / "manifest.json", scratch / "out.txt"
    argv = [*SUITE_ARGV, "--manifest", str(manifest_path), "--output", str(output_path)]
    reports: List[Any] = []
    shortened = None if args.scale == "full" else workload.sizes[args.scale][1]
    root = tracer.root if tracer is not None else contextlib.nullcontext
    host = HostSpeed(0 if tracer is not None else SUITE_CONFIGS + 1, args.scale)
    try:
        # The shim goes on after the tracer and comes off before it, so
        # the tracer restores exactly what it replaced.
        with _seeded_suite(args.seed, shortened, reports, host):
            setup_s = time.perf_counter() - _T0
            with root(), contextlib.redirect_stdout(io.StringIO()):
                started = time.perf_counter()
                exit_code = run_all.main(argv)
                # The sampling windows sit inside main(); take them out.
                wall_s = time.perf_counter() - started - host.seconds
            host.sample()
        manifest = load_manifest(manifest_path)
        rendered = output_path.read_text(encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    configs = manifest["configs"]
    trials = sum(c["trials"] for c in configs)
    digests = [d for c in configs for d in c["trace_digests"]]
    failures: List[str] = []
    failed_ops = 0
    good = []
    for index, report in enumerate(reports):
        # A supervised sweep leaves a TrialFailure in a failed trial's slot.
        if hasattr(report, "transport_probes_sent"):
            good.append(report)
            problems = workload.check(report, None, 0)
        else:
            problems = [f"no report: {report!r}"]
        if problems:
            failed_ops += 1
            failures.extend(f"trial {index}: {p}" for p in problems)
    if exit_code != 0 or len(reports) != trials or None in digests:
        failures.append(
            f"run_all.main returned {exit_code}; {len(reports)} reports, "
            f"{trials} manifest trials, {digests.count(None)} missing digests"
        )
        failed_ops = trials
    stable = rendered.split(_SUITE_TAIL)[0]
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "host_speed": host.speed,
        "sim_s": sum(c["trials"] * (c["warmup"] + c["duration"]) for c in configs),
        "events": None,  # no engine handle from outside the CLI; see the trace
        "ops_attempted": max(trials, 1),
        "ops_failed": failed_ops,
        "failures": failures,
        "counters": {n: sum(getattr(r, n) for r in good) for n in COUNTERS},
        "trace_digest": fingerprint(digests),
        "fingerprint": fingerprint({
            "trace_digests": digests,
            "out": _SUITE_ELAPSED.sub("", stable),
        }),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--extra-target", action="append", default=[], metavar="DOTTED",
        help="also try to wrap this target (tests pass a bogus one)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fails here, loudly, when the sources are missing)

    if workload.build is None:
        # What a CLI user pays before main() starts is its imports.
        import repro.experiments.run_all  # noqa: F401

    tracer = None
    if args.trace:
        from bench.trace import SPAN, Tracer

        tracer = Tracer([("trace", dotted, SPAN, "extra") for dotted in args.extra_target])
    run = _run_simulation if workload.build is not None else _run_suite
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        result = run(workload, args, tracer)
    result.update(
        workload=workload.name,
        seed=args.seed,
        scale=args.scale,
        traced=tracer is not None,
        probes=result["counters"]["transport_probes_sent"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        summary = tracer.summary()
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_path = RESULTS / f"trace-{workload.name}.json"
        header = {k: result[k] for k in ("workload", "seed", "scale", "wall_s", "fingerprint")}
        trace_path.write_text(json.dumps({**header, **summary}, indent=1) + "\n", encoding="utf-8")
        # The raw spans stay in the file; the driver only needs aggregates.
        del summary["raw_spans"]
        result["trace"] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
