"""repro.observe — the observability layer.

Two channels, one contract:

* **the sweep profiler** (:mod:`repro.observe.profiler`) — per-suite
  wall time and one engine sample per in-process trial, taken by
  ``execute_trial`` around ``sim.run``; ``run_all`` reads its suite
  times and ``run_all --profile-report`` appends its table;
* **run manifests** (:mod:`repro.observe.manifest`) — a JSON record of
  every executed configuration (params, fault plan, derived seeds,
  trace digests, report fingerprints, package version) from which the
  run can be replayed and verified bit for bit.

The counts a report is built from are not an observer: they are plain
``int`` tallies on the transport and the collector
(:mod:`repro.metrics.collectors`), read once at the end of a run, and
:class:`~repro.core.search.QueryResult` is the one per-query record.

The contract: observation never perturbs the simulation.  The kernel
holds no observer and reads no clock; a profiler only reads the event
count the engine already keeps, after the run, and an active manifest
recorder only forces the trace digest on and appends a config entry once
the reports are back.  Neither schedules events, draws randomness, or
mutates protocol state: a profiled run has the same trace digest and
report, and a recorded one the same report fingerprint.
``tests/integration/test_determinism.py`` and
``tests/property/test_observe_invisibility.py`` hold this line.
"""

from typing import Any

from repro.observe.profiler import Profiler, active_profiler
from repro.observe.staleness import StalenessSummary, summarize_staleness

#: Manifest symbols resolve lazily so that ``python -m
#: repro.observe.manifest`` (the replay CLI) runs a module this package
#: has not imported yet: an eager import here would make runpy warn that
#: the module was "found in sys.modules" before it was executed.
_MANIFEST_EXPORTS = frozenset({
    "ManifestRecorder",
    "load_manifest",
    "verify_manifest",
    "write_manifest",
})


def __getattr__(name: str) -> Any:
    if name in _MANIFEST_EXPORTS:
        from repro.observe import manifest

        return getattr(manifest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ManifestRecorder",
    "Profiler",
    "StalenessSummary",
    "active_profiler",
    "load_manifest",
    "summarize_staleness",
    "verify_manifest",
    "write_manifest",
]
