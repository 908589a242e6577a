"""Whole-program static effect analysis for the determinism contracts.

The RD001-RD005 visitors check one file at a time; the golden-digest
pins check one config at a time.  This subpackage closes the gap between
them: it builds a module- and call-graph over ``src/repro``, infers a
per-function effect set from a six-element lattice —

========  =====================================================
Effect    Meaning
========  =====================================================
RNG_DRAW       draws from (or derives seeds for) a random stream
SCHEDULE       inserts/executes engine events
WALLCLOCK      reads the host clock
FILE_IO        touches the filesystem
UNORDERED_ITER iterates a set where order feeds a decision
GLOBAL_MUT     mutates module-global state
========  =====================================================

— propagates it transitively to a fixpoint, and checks the declared
contracts in ``effect_contracts.toml`` (rules RD006-RD010), proving for
*every call path* what the digest pins prove for pinned configs:
observation is invisible, fault draws stay on ``fault:*`` substreams,
reporting never schedules, the supervisor touches no simulation state,
and the kernel does no I/O.

Unknown calls contribute no effects: like the per-file visitors, the
engine prefers false negatives over false positives, and the dynamic
trace-hash pins backstop what it cannot prove.
"""

from repro.devtools.effects.callgraph import Program, build_program
from repro.devtools.effects.checker import EffectCheckResult, check_effects
from repro.devtools.effects.contracts import (
    Baseline,
    BaselineEntry,
    Contract,
    ContractError,
    load_baseline,
    load_contracts,
)
from repro.devtools.effects.driver import (
    analyze_paths,
    analyze_sources,
    collect_sources,
    module_name_for,
)
from repro.devtools.effects.inference import apply_intrinsics, propagate
from repro.devtools.effects.model import Effect, EffectSite, EffectTable
from repro.devtools.effects.report import render_effect_table

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Contract",
    "ContractError",
    "Effect",
    "EffectCheckResult",
    "EffectSite",
    "EffectTable",
    "Program",
    "analyze_paths",
    "analyze_sources",
    "apply_intrinsics",
    "build_program",
    "check_effects",
    "collect_sources",
    "load_baseline",
    "load_contracts",
    "module_name_for",
    "propagate",
    "render_effect_table",
]
