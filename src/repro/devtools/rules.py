"""Rule registry and violation records for the determinism linter.

A :class:`Rule` is a static description (id, pragma slug, summary); the
matching AST logic lives in :mod:`repro.devtools.visitors`.  Keeping the
descriptions in one table gives the CLI ``--explain`` output, the pragma
parser, and the fixture tests a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True, slots=True)
class Rule:
    """A lint rule's static description.

    Attributes:
        id: short stable identifier (``RD001`` ... ``RD005``).
        slug: pragma suffix: ``# repro: allow-<slug>`` suppresses the rule.
        summary: one-line description shown by the reporter.
        rationale: why violating the rule breaks bit-for-bit reproduction.
    """

    id: str
    slug: str
    summary: str
    rationale: str

    @property
    def pragma_keys(self) -> frozenset[str]:
        """Tokens accepted after ``allow-`` to suppress this rule."""
        return frozenset({self.slug.lower(), self.id.lower()})


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a rule broken at a specific source location."""

    rule: Rule
    path: str
    line: int
    column: int
    message: str

    def render(self) -> str:
        """``path:line:col: RDxxx message`` — editor-clickable."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule.id} {self.message}"
        )


#: Registry of every rule, keyed by rule id, in id order.
RULES: Dict[str, Rule] = {}

#: Visitor factories registered per rule id (filled by visitors.py).
VISITOR_FACTORIES: Dict[str, Callable] = {}


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (idempotent for identical rules)."""
    existing = RULES.get(rule.id)
    if existing is not None and existing != rule:
        raise ValueError(f"conflicting registration for rule {rule.id}")
    RULES[rule.id] = rule
    return rule


def register_visitor(rule_id: str) -> Callable:
    """Class decorator: associate an AST visitor factory with ``rule_id``."""
    if rule_id not in RULES:
        raise ValueError(f"cannot register visitor for unknown rule {rule_id}")

    def decorator(factory: Callable) -> Callable:
        VISITOR_FACTORIES[rule_id] = factory
        return factory

    return decorator


def rules_for_pragma_key(key: str) -> List[Rule]:
    """Rules suppressed by pragma token ``key`` (slug or id, any case)."""
    lowered = key.lower()
    return [rule for rule in RULES.values() if lowered in rule.pragma_keys]


RD001 = register_rule(
    Rule(
        id="RD001",
        slug="global-random",
        summary=(
            "module-level random.* call or unseeded random.Random() "
            "outside repro.sim.rng"
        ),
        rationale=(
            "The global random generator is shared mutable state: any new "
            "consumer perturbs every existing draw sequence, and unseeded "
            "Random() pulls OS entropy.  Randomness must flow through named "
            "streams (repro.sim.rng) or an injected, explicitly seeded "
            "random.Random."
        ),
    )
)

RD002 = register_rule(
    Rule(
        id="RD002",
        slug="wallclock",
        summary="wall-clock read (time.time/datetime.now/...) in simulation code",
        rationale=(
            "Simulation time is the engine clock; reading the wall clock "
            "inside the repro package lets host speed leak into results. "
            "Wall-clock is reporting-only and must carry an explicit "
            "allow-wallclock pragma."
        ),
    )
)

RD003 = register_rule(
    Rule(
        id="RD003",
        slug="unordered-iter",
        summary=(
            "unordered set iteration feeding RNG selection, heap pushes, "
            "or cache eviction without sorted()"
        ),
        rationale=(
            "Set iteration order is an implementation detail; when it feeds "
            "policy selection, scheduling, or eviction the run is only "
            "accidentally reproducible.  Sort (or otherwise deterministically "
            "order) the collection first.  Dict iteration is insertion-"
            "ordered and therefore accepted."
        ),
    )
)

RD004 = register_rule(
    Rule(
        id="RD004",
        slug="float-time-eq",
        summary="== / != between two floating-point simulation timestamps",
        rationale=(
            "Timestamps are accumulated floats; exact equality between two "
            "computed timestamps flips on rounding and silently changes "
            "event order.  Compare against an explicit tolerance or use "
            "<=/>= window checks."
        ),
    )
)

RD005 = register_rule(
    Rule(
        id="RD005",
        slug="heap-mutation",
        summary="engine heap internals (_heap/_seq/_now) touched outside schedule()",
        rationale=(
            "The engine's (time, priority, seq) ordering invariant holds "
            "only when every insertion goes through schedule()/"
            "schedule_after().  Direct pokes at _heap, _seq, or _now bypass "
            "sequence numbering and break the trace hash."
        ),
    )
)

RD006 = register_rule(
    Rule(
        id="RD006",
        slug="effect-observe",
        summary=(
            "RNG_DRAW or SCHEDULE effect reachable from repro.observe "
            "(observation must be invisible to the trace)"
        ),
        rationale=(
            "Arming repro.observe must never perturb a run: the golden "
            "digest pins prove it for the configs we pin, and this "
            "contract proves it for every call path.  Nothing reachable "
            "from an observe entry point may draw randomness or touch "
            "the event schedule."
        ),
    )
)

RD007 = register_rule(
    Rule(
        id="RD007",
        slug="effect-fault-substream",
        summary=(
            "repro.faults RNG access outside a constant 'fault:'-prefixed "
            "substream name"
        ),
        rationale=(
            "Fault draws live on fault:* substreams so that toggling a "
            "fault source never shifts protocol streams (policies, "
            "queries, ...).  Every derive_seed()/stream() call site in "
            "repro.faults must pass a string whose literal prefix is "
            "'fault:' — a computed name could collide with a protocol "
            "stream and silently break the all-zeros-invisibility pin."
        ),
    )
)

RD008 = register_rule(
    Rule(
        id="RD008",
        slug="effect-reporting",
        summary=(
            "SCHEDULE effect reachable from repro.reporting or "
            "repro.analysis (post-hoc code must not schedule events)"
        ),
        rationale=(
            "Reporting and analysis run after (or beside) the simulation "
            "and must stay read-only with respect to the event schedule; "
            "a scheduled event from a formatter would change the trace "
            "depending on whether results are rendered."
        ),
    )
)

RD009 = register_rule(
    Rule(
        id="RD009",
        slug="effect-supervisor",
        summary=(
            "repro.experiments.supervisor touching simulation state "
            "(RNG/schedule effects, sim-package imports, global mutation)"
        ),
        rationale=(
            "The supervisor orchestrates worker processes; all simulation "
            "state lives behind the execute_trial boundary.  If the "
            "supervisor itself drew randomness, scheduled events, or "
            "imported simulation modules, a resumed sweep could diverge "
            "from a one-shot run — the byte-identical resume pin only "
            "checks the sweeps we pin."
        ),
    )
)

RD010 = register_rule(
    Rule(
        id="RD010",
        slug="effect-kernel-io",
        summary=(
            "FILE_IO or WALLCLOCK effect inside the repro.sim kernel "
            "(the hot loop does no I/O)"
        ),
        rationale=(
            "The event kernel is the innermost loop of every experiment; "
            "file I/O or wall-clock reads there leak host speed into "
            "results and wreck throughput.  There is no exception: a "
            "sweep is timed outside the kernel, around sim.run."
        ),
    )
)

#: Rule ids checked per-file by AST visitors (repro.devtools.visitors).
FILE_RULE_IDS: frozenset = frozenset({"RD001", "RD002", "RD003", "RD004", "RD005"})

#: Rule ids checked whole-program by the effect engine (devtools.effects).
EFFECT_RULE_IDS: frozenset = frozenset({"RD006", "RD007", "RD008", "RD009", "RD010"})

#: Rules in id order, for reporting.
ORDERED_RULES: List[Rule] = [RULES[key] for key in sorted(RULES)]
