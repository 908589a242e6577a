"""Transitive effect inference: direct effects + call graph -> fixpoint.

``propagate`` unions each function's direct effects with the inferred effect
sets of its resolved callees until nothing changes.  Effect *origins* are
tracked alongside: for every (function, effect) pair the engine remembers
either the function's own first effect site, or the first callee (in
deterministic qualname-then-source order) the effect was inherited from —
enough to reconstruct a witness call chain for diagnostics.

A small set of *intrinsic* effects seeds the analysis when the relevant
kernel modules are part of the program: ``derive_seed`` and
``RngRegistry.stream`` are RNG consumption even though their bodies are
hash arithmetic, and the ``Simulator`` event-insertion and
event-execution entry points are SCHEDULE regardless of what the resolver
sees inside them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.devtools.effects.callgraph import Program
from repro.devtools.effects.model import (
    Effect,
    EffectOrigin,
    EffectSite,
    EffectTable,
)

#: Intrinsic effect annotations for kernel primitives, applied when the
#: qualname exists in the analyzed program.
INTRINSIC_EFFECTS: Mapping[str, FrozenSet[Effect]] = {
    "repro.sim.rng.derive_seed": frozenset({Effect.RNG_DRAW}),
    "repro.sim.rng.RngRegistry.stream": frozenset({Effect.RNG_DRAW}),
    "repro.sim.engine.Simulator.schedule": frozenset({Effect.SCHEDULE}),
    "repro.sim.engine.Simulator.schedule_after": frozenset({Effect.SCHEDULE}),
    "repro.sim.engine.Simulator.step": frozenset({Effect.SCHEDULE}),
    "repro.sim.engine.Simulator.run_until": frozenset({Effect.SCHEDULE}),
    "repro.sim.engine.Simulator.run_all": frozenset({Effect.SCHEDULE}),
}


def apply_intrinsics(program: Program) -> None:
    """Seed known kernel primitives with their intrinsic effects."""
    for qualname, effects in INTRINSIC_EFFECTS.items():
        info = program.functions.get(qualname)
        if info is None:
            continue
        for effect in effects:
            info.add_direct(
                effect,
                EffectSite(
                    path=info.path,
                    line=info.lineno,
                    detail=f"intrinsic {effect.value} primitive",
                ),
            )


def propagate(
    program: Program, opaque: Optional[Iterable[str]] = None
) -> EffectTable:
    """Compute the transitive effect table for ``program``.

    Args:
        program: resolved program (``build_program`` output, with
            :func:`apply_intrinsics` already applied).
        opaque: qualnames treated as effect boundaries — calls into them
            contribute nothing, and their own entries read as empty.
            Used by contracts that declare an architectural hand-off
            point (e.g. the supervisor's ``execute_trial`` boundary).

    Iteration order is sorted-by-qualname and edges are kept in source
    order, so origins (and therefore diagnostics) are deterministic.
    """
    opaque_set: Set[str] = set(opaque or ())
    effects: Dict[str, Set[Effect]] = {}
    origins: Dict[str, Dict[Effect, EffectOrigin]] = {}

    for qualname in sorted(program.functions):
        info = program.functions[qualname]
        if qualname in opaque_set:
            effects[qualname] = set()
            origins[qualname] = {}
            continue
        effects[qualname] = set(info.direct)
        origins[qualname] = {
            effect: EffectOrigin(site=site, via=None)
            for effect, site in info.direct.items()
        }

    changed = True
    while changed:
        changed = False
        for qualname in sorted(program.functions):
            if qualname in opaque_set:
                continue
            info = program.functions[qualname]
            own = effects[qualname]
            for edge in info.calls:
                if edge.callee in opaque_set:
                    continue
                callee_effects = effects.get(edge.callee)
                if not callee_effects:
                    continue
                for effect in callee_effects - own:
                    own.add(effect)
                    site = origins.get(edge.callee, {}).get(effect)
                    origins[qualname][effect] = EffectOrigin(
                        site=site.site if site is not None else EffectSite(
                            path=info.path, line=edge.line, detail="via call"
                        ),
                        via=edge.callee,
                    )
                    changed = True

    return EffectTable(
        effects={q: frozenset(e) for q, e in effects.items()},
        origins=origins,
    )
