"""Run manifests: the reproducibility record of an experiment run.

Every ``run_all`` invocation writes a ``manifest.json`` capturing, for
each configuration a suite's sweep executed: every field of its
:class:`~repro.experiments.executor.TrialSpec` (parameters and plans),
the derived per-trial seeds, and each trial's trace digest and report
fingerprint — plus the package version, profile, suite list and wall
clock.  Any published number is then reproducible from its manifest
alone: :func:`verify_manifest` re-runs every recorded trial as one batch
and asserts the digests and fingerprints match bit for bit
(``python -m repro.observe.manifest manifest.json`` from the CLI).
Replayed on ``--workers N`` it is also the serial-vs-parallel check:
a serial run's reports, reproduced on a process pool.

Capture piggybacks on the one choke point all suites share:
:func:`~repro.experiments.runner.run_cells` consults
:func:`active_manifest_recorder` and, when a recorder is installed (via
:func:`activated`), forces ``trace_hash=True`` on every trial and
appends one config entry per cell after the reports return.  Suites
that drive simulations directly (the ping-interval LCC snapshots)
contribute no config entries; the manifest still records the exact
command to re-launch them.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ConfigError, TrialFailure
from repro.sim.rng import derive_seed

if TYPE_CHECKING:
    from repro.experiments.executor import TrialSpec
    from repro.metrics.collectors import SimulationReport

#: Bumped when the manifest layout changes incompatibly.  Version 2
#: added ``fingerprints``; a version-1 entry lacks them and verifies by
#: its trace digests alone.
MANIFEST_VERSION = 2

#: An entry is one :class:`TrialSpec` minus the fields that differ per
#: trial (or that the recorder forces), plus the keys describing the run.
PER_TRIAL_FIELDS = ("seed", "trace_hash")
RUN_KEYS = ("trials", "base_seed", "seeds", "trace_digests", "fingerprints")

#: Fields gone from a class, with the one JSON value the code still runs
#: for each: the value every run held, which the code now hardwires as a
#: constant (for ``ResiliencePolicy``, the tuning ``all_on()`` armed).
#: Such a key is skipped; at any other value the entry ran something
#: this code cannot replay, so it fails typed.
RETIRED: Dict[str, Dict[str, Any]] = {
    "ProtocolParams": {
        "retry_backoff": "fixed",
        "retry_base": None,
        "retry_multiplier": 2.0,
    },
    "FaultPlan": {
        "burst": {
            "loss_good": 0.0,
            "loss_bad": 0.0,
            "p_good_to_bad": 0.0,
            "p_bad_to_good": 0.0,
        },
        "jitter": 0.0,
        "brownouts": {"rate": 0.0, "duration": 0.0},
        "partitions": [],
    },
    "TrialSpec": {"keep_queries": False, "health_sample_interval": 60.0},
    "GossipPlan": {"hop_delay": 0.05},
    "FreshnessPlan": {"notify_delay": 0.05, "on_overload": True},
    "CacheSizing": {"reference_files": 100, "alpha": 2.0},
    "ResiliencePolicy": {
        "breaker": {"failure_threshold": 3, "cooldown": 30.0},
        "budget": {"capacity": 10, "refill_interval": 5.0},
        "shedding": {"soft_fraction": 0.5},
    },
}


# ----------------------------------------------------------------------
# Parameter (de)serialisation
# ----------------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """JSON-ready form of a parameter value, driven by its type.

    A dataclass becomes a dict of its fields, an enum its member name, a
    tuple a list; scalars and ``None`` pass through.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, tuple):
        return [to_jsonable(item) for item in value]
    return value


def from_jsonable(kind: Any, data: Any, path: str = "") -> Any:
    """Inverse of :func:`to_jsonable` for a value annotated ``kind``.

    ``kind`` is a dataclass, an enum, ``Optional[X]`` / ``X | None``,
    ``Tuple[X, ...]`` or a scalar type.  A key a dataclass dict lacks
    falls back to the field's default, so manifests written before the
    field existed still load; a :data:`RETIRED` key at the value the
    code hardwires is skipped, so manifests written before the field
    went load too.

    Raises:
        ConfigError: naming the dotted ``path`` of an unknown field, a
            retired field at any other value, an unknown enum name
            or a wrongly shaped container.
    """
    if get_origin(kind) in (Union, UnionType):
        if data is None:
            return None
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
    if get_origin(kind) is tuple:
        if not isinstance(data, list):
            raise _malformed(path, f"expected a list, got {data!r}")
        return tuple(
            from_jsonable(get_args(kind)[0], value, f"{path}[{index}]")
            for index, value in enumerate(data)
        )
    if isinstance(kind, type) and issubclass(kind, Enum):
        if not isinstance(data, str) or data not in kind.__members__:
            raise _malformed(path, f"unknown {kind.__name__} name {data!r}")
        return kind[data]
    declared = getattr(kind, "__dataclass_fields__", None)
    if declared is None:
        return data
    if not isinstance(data, dict):
        raise _malformed(path, f"expected an object, got {data!r}")
    hints = get_type_hints(kind)
    retired = RETIRED.get(kind.__name__, {})
    values = {}
    for name, value in data.items():
        if name in retired:
            if value == retired[name]:
                continue
            raise _malformed(
                f"{path}.{name}",
                f"retired field of {kind.__name__} set to {value!r}; "
                f"only {retired[name]!r} replays",
            )
        if name not in declared:
            raise _malformed(f"{path}.{name}", f"unknown field of {kind.__name__}")
        values[name] = from_jsonable(hints[name], value, f"{path}.{name}")
    try:
        return kind(**values)
    except TypeError as error:  # a field without a default is missing
        raise _malformed(path, str(error)) from None


def _malformed(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path.lstrip('.') or 'entry'}: {message}")


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


class ManifestRecorder:
    """Accumulates one config entry per executed sweep cell."""

    def __init__(self) -> None:
        self.configs: List[Dict[str, Any]] = []

    def record_config(
        self,
        spec: TrialSpec,
        *,
        trials: int,
        base_seed: int,
        seeds: Sequence[int],
        reports: Sequence[Union[SimulationReport, TrialFailure]],
    ) -> None:
        """Append one executed configuration with its seeds and reports.

        ``spec`` is any one of its trials; every field outside
        :data:`PER_TRIAL_FIELDS` is written, whatever fields there are.
        Each report is kept as its trace digest and its fingerprint; a
        quarantined trial's slot holds ``None`` in both.
        """
        entry: Dict[str, Any] = to_jsonable(spec)
        for name in PER_TRIAL_FIELDS:
            del entry[name]
        entry.update(
            trials=trials,
            base_seed=base_seed,
            seeds=list(seeds),
            trace_digests=[report.trace_digest for report in reports],
            fingerprints=[
                None if isinstance(report, TrialFailure) else report.fingerprint()
                for report in reports
            ],
        )
        self.configs.append(entry)

    def build(
        self,
        *,
        profile: str,
        suites: Sequence[str],
        workers: int,
        wall_clock_seconds: float,
        command: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """Freeze everything recorded so far into a manifest dict."""
        from repro import __version__

        return {
            "manifest_version": MANIFEST_VERSION,
            "package_version": __version__,
            "profile": profile,
            "suites": list(suites),
            "workers": workers,
            "wall_clock_seconds": wall_clock_seconds,
            "command": list(command) if command is not None else None,
            "configs": list(self.configs),
        }


_ACTIVE: Optional[ManifestRecorder] = None


def active_manifest_recorder() -> Optional[ManifestRecorder]:
    """The recorder installed by :func:`activated`, or None."""
    return _ACTIVE


@contextmanager
def activated(recorder: ManifestRecorder) -> Iterator[ManifestRecorder]:
    """Install ``recorder`` as the process-wide active recorder."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Write ``manifest`` as pretty-printed, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Replay / verification
# ----------------------------------------------------------------------


def specs_for_entry(entry: Dict[str, Any]) -> List[TrialSpec]:
    """Reconstruct a config entry's :class:`TrialSpec` list exactly.

    The one decoder of manifest entries: rebuilds the specs the way
    :func:`~repro.experiments.runner.run_cells` built them — seeds
    re-derived from ``base_seed``, ``trace_hash`` forced on as the
    recorder forces it.  :func:`verify_manifest` runs these specs and
    the supervisor verifies its journal (keyed by spec fingerprints)
    against them.  The executor import is lazy because the runner
    imports this module for the active-recorder hook.

    Raises:
        ConfigError: the entry is malformed (see :func:`from_jsonable`).
    """
    from repro.experiments.executor import TrialSpec

    data = {key: value for key, value in entry.items() if key not in RUN_KEYS}
    data.update(seed=0, trace_hash=True)
    template = from_jsonable(TrialSpec, data)
    try:
        trials, base_seed = entry["trials"], entry["base_seed"]
    except KeyError as missing:
        raise _malformed("", f"missing key {missing}") from None
    return [
        replace(template, seed=derive_seed(base_seed, f"trial:{trial}"))
        for trial in range(trials)
    ]


def verify_manifest(manifest: Dict[str, Any], *, workers: int = 1) -> List[str]:
    """Replay every recorded trial; return human-readable mismatch lines.

    Every entry that decodes and re-derives its seeds joins one batch on
    one executor, as :func:`~repro.experiments.runner.run_cells` ran
    them, so ``workers=N`` spreads even one-trial configs over the pool.
    Each trial's trace digest and (from version 2 on) report
    fingerprint must match the recorded ones.  An empty return means
    the manifest reproduced bit for bit.  With ``workers`` > 1 a replay
    that never reached a worker process is a problem too: it compared a
    serial run with a serial run.
    """
    from repro.experiments.executor import get_executor

    problems: List[Tuple[int, str]] = []
    replayed: List[Tuple[int, List[Tuple[Any, Any]], int]] = []
    batch: List[TrialSpec] = []
    for index, entry in enumerate(manifest.get("configs", [])):
        try:
            specs = specs_for_entry(entry)
        except ConfigError as error:
            problems.append((index, str(error)))
            continue
        if [spec.seed for spec in specs] != entry["seeds"]:
            problems.append((
                index,
                "recorded seeds do not re-derive from "
                f"base_seed {entry['base_seed']}",
            ))
            continue
        digests = entry["trace_digests"]
        # A version-1 entry has no fingerprints: its digests alone verify.
        fingerprints = entry.get("fingerprints", [None] * len(digests))
        if not len(digests) == len(fingerprints) == len(specs):
            problems.append((
                index,
                f"records {len(digests)} digest(s) and {len(fingerprints)} "
                f"fingerprint(s) for {len(specs)} trials",
            ))
            continue
        replayed.append((index, list(zip(digests, fingerprints)), len(batch)))
        batch.extend(specs)
    with get_executor(workers) as executor:
        reports = executor.run_trials(batch)
    for index, recorded, start in replayed:
        got = reports[start:start + len(recorded)]
        for trial, (report, (digest, fingerprint)) in enumerate(zip(got, recorded)):
            if report.trace_digest != digest:
                problems.append((
                    index,
                    f"trial {trial}: trace digest diverges "
                    f"(expected {digest}, got {report.trace_digest})",
                ))
            if fingerprint is not None and report.fingerprint() != fingerprint:
                problems.append((
                    index,
                    f"trial {trial}: report fingerprint diverges "
                    f"(expected {fingerprint}, got {report.fingerprint()})",
                ))
    problems.sort(key=lambda problem: problem[0])
    lines = [f"config {index}: {problem}" for index, problem in problems]
    if workers > 1 and not getattr(executor, "pool_started", False):
        lines.append(
            f"no trial reached a worker process: the workers={workers} "
            "replay ran serially, so it compared nothing with a parallel run"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: re-run a manifest's trials and verify digests and fingerprints."""
    parser = argparse.ArgumentParser(
        description="Verify that a run manifest reproduces bit for bit."
    )
    parser.add_argument("manifest", help="path to a manifest.json")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "replay every trial as one batch on N worker processes "
            "(default: serial); with N > 1 it fails unless a trial "
            "reached a worker — the serial-vs-parallel check"
        ),
    )
    args = parser.parse_args(argv)
    manifest = load_manifest(args.manifest)
    configs: Sequence[dict] = manifest.get("configs", [])
    problems = verify_manifest(manifest, workers=args.workers)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(
        f"manifest OK: {len(configs)} configs, "
        f"{sum(len(c['seeds']) for c in configs)} trials reproduced bit for bit"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
