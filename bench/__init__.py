"""End-to-end and per-layer benchmark of the GUESS simulator.

Everything here measures :mod:`repro` from the outside: ``bench.run``
launches one child interpreter at a time (``bench.cell``), times the
public entry points a user calls, and — in a separate traced child —
wraps the layers' public functions (``bench.trace``).  See
``bench/README.md`` for the metric glossary and the noise procedure.
"""

from pathlib import Path

#: The checkout the benchmark lives in (wherever that is).
ROOT = Path(__file__).resolve().parent.parent
#: The simulator's sources; children put this first on ``sys.path``.
SRC = ROOT / "src"
#: Result files, trace files and the CLI workload's scratch directory
#: (git-ignored, created on demand).
RESULTS = ROOT / "bench" / "results"
