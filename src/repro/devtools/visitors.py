"""AST visitors implementing lint rules RD001-RD005.

Each visitor walks one module's AST and reports findings through a shared
:class:`FileContext`.  The visitors are deliberately heuristic — they run
on every commit, so false positives are costlier than the occasional miss;
anything they cannot prove is treated as clean, and the dynamic trace-hash
sanitizer (``Simulator(trace_hash=True)``) backstops what escapes them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.devtools.rules import (
    RD001,
    RD002,
    RD003,
    RD004,
    RD005,
    Rule,
    register_visitor,
)

#: ``random``-module functions that draw from the shared global generator.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "seed", "random", "uniform", "randint", "randrange", "getrandbits",
        "choice", "choices", "shuffle", "sample", "triangular", "betavariate",
        "binomialvariate", "expovariate", "gammavariate", "gauss",
        "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "getstate", "setstate", "randbytes",
    }
)

#: ``time``-module functions that read the host clock.
WALLCLOCK_TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
)

#: ``datetime``/``date`` classmethods that read the host clock.
WALLCLOCK_DATETIME_METHODS = frozenset({"now", "today", "utcnow"})

#: RNG method names whose argument order matters (selection/permutation).
RNG_SELECTION_METHODS = frozenset({"choice", "choices", "sample", "shuffle"})

#: Any RNG method: used to detect draws inside an unordered loop.
RNG_DRAW_METHODS = GLOBAL_RANDOM_FUNCS | RNG_SELECTION_METHODS

#: Method names that push into heaps, caches, or the event schedule.
ORDER_SENSITIVE_METHODS = frozenset(
    {"insert", "evict", "schedule", "schedule_after", "heappush", "push"}
)

#: Names that look like simulation timestamps (RD004).
TIMESTAMP_NAMES = frozenset({"now", "ts", "time", "timestamp"})
TIMESTAMP_SUFFIXES = ("_time", "_ts", "_timestamp")

#: Engine internals that must not be touched outside the engine (RD005).
ENGINE_HEAP_ATTRS = frozenset({"_heap", "_seq"})
ENGINE_CLOCK_ATTR = "_now"


@dataclass
class FileContext:
    """Per-file state shared by every visitor.

    Attributes:
        path: path the file is reported (and classified) under.
        report: callback ``(rule, node, message)`` collecting findings.
    """

    path: str
    report: Callable[[Rule, ast.AST, str], None]
    _parts: tuple = field(init=False)

    def __post_init__(self) -> None:
        self._parts = PurePosixPath(self.path.replace("\\", "/")).parts

    @property
    def in_repro_package(self) -> bool:
        """Whether the file belongs to the ``repro`` package (not tests)."""
        return "repro" in self._parts

    def _is_module(self, *tail: str) -> bool:
        n = len(tail)
        return self._parts[-n:] == tail

    @property
    def is_rng_module(self) -> bool:
        return self._is_module("repro", "sim", "rng.py")

    @property
    def is_engine_module(self) -> bool:
        return self._is_module("repro", "sim", "engine.py")


class _ImportTracker(ast.NodeVisitor):
    """Base visitor that tracks aliases of interesting modules/names.

    ``module_aliases[name]`` maps a local name to the module it refers to
    (``import random as rnd`` -> ``{"rnd": "random"}``); ``name_imports``
    maps a local name to ``(module, original_name)`` for ``from`` imports.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module_aliases: Dict[str, str] = {}
        self.name_imports: Dict[str, tuple] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.module_aliases[local] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.name_imports[local] = (node.module, alias.name)
        self.generic_visit(node)

    # Helpers -----------------------------------------------------------

    def _module_of(self, node: ast.AST) -> Optional[str]:
        """The module a bare name refers to, if it is a module alias."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id)
        return None

    def _from_import_of(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """The ``(module, original)`` pair behind a from-imported name."""
        if isinstance(node, ast.Name):
            return self.name_imports.get(node.id)
        return None


@register_visitor("RD001")
class GlobalRandomVisitor(_ImportTracker):
    """RD001: global ``random.*`` calls / unseeded ``random.Random()``."""

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.is_rng_module:
            self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._module_of(func.value) == "random":
            self._check_random_use(node, func.attr)
            return
        from_import = self._from_import_of(func)
        if from_import is not None and from_import[0] == "random":
            self._check_random_use(node, from_import[1])

    def _check_random_use(self, node: ast.Call, name: str) -> None:
        if name == "SystemRandom":
            self.ctx.report(
                RD001, node,
                "random.SystemRandom() draws OS entropy and can never "
                "be reproduced; use a named stream from repro.sim.rng",
            )
        elif name == "Random" and not node.args and not node.keywords:
            self.ctx.report(
                RD001, node,
                "unseeded random.Random() is seeded from OS entropy; pass "
                "an explicit seed or use a named stream from repro.sim.rng",
            )
        elif name in GLOBAL_RANDOM_FUNCS:
            self.ctx.report(
                RD001, node,
                f"random.{name}() uses the shared module-level generator; "
                "draw from a named stream or an injected random.Random",
            )


@register_visitor("RD002")
class WallClockVisitor(_ImportTracker):
    """RD002: wall-clock reads inside the ``repro`` package."""

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.in_repro_package:
            self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # time.time(), time.monotonic(), ...
            if (
                self._module_of(func.value) == "time"
                and func.attr in WALLCLOCK_TIME_FUNCS
            ):
                self._flag(node, f"time.{func.attr}()")
                return
            if func.attr in WALLCLOCK_DATETIME_METHODS:
                value = func.value
                # datetime.datetime.now() / datetime.date.today()
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                    and self._module_of(value.value) == "datetime"
                ):
                    self._flag(node, f"datetime.{value.attr}.{func.attr}()")
                    return
                # now()/today() on `from datetime import datetime, date`
                from_import = self._from_import_of(value)
                if (
                    from_import is not None
                    and from_import[0] == "datetime"
                    and from_import[1] in ("datetime", "date")
                ):
                    self._flag(node, f"{from_import[1]}.{func.attr}()")
                    return
        from_import = self._from_import_of(func)
        if (
            from_import is not None
            and from_import[0] == "time"
            and from_import[1] in WALLCLOCK_TIME_FUNCS
        ):
            self._flag(node, f"time.{from_import[1]}()")

    def _flag(self, node: ast.Call, what: str) -> None:
        self.ctx.report(
            RD002, node,
            f"{what} reads the wall clock inside simulation code; "
            "simulation time comes from the engine — if this is "
            "reporting-only, annotate with `# repro: allow-wallclock`",
        )


class _Scope:
    """One lexical scope's set-typed (unordered) local bindings."""

    __slots__ = ("unordered_names",)

    def __init__(self) -> None:
        self.unordered_names: Set[str] = set()


@register_visitor("RD003")
class UnorderedIterationVisitor(_ImportTracker):
    """RD003: unordered iteration feeding order-sensitive operations.

    Heuristic, scope-aware taint tracking:

    * an expression is *unordered* if it is a set literal/comprehension,
      a ``set()``/``frozenset()`` call, a set-operator combination of
      unordered operands, a local name assigned one of those, an
      attribute annotated with a set type anywhere in the module, or a
      ``list()``/comprehension built directly over an unordered source
      (listing a set freezes its arbitrary order — still nondeterministic);
    * ``sorted(...)`` (or any other explicit ordering) launders the taint;
    * a finding is reported when an unordered expression is iterated by a
      ``for`` whose body draws from an RNG, pushes into a heap/schedule,
      or inserts/evicts cache entries — or is passed directly to an RNG
      selection method (``sample``/``choice``/``choices``/``shuffle``).
    """

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._scopes: List[_Scope] = [_Scope()]
        self.unordered_attrs: Set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self._collect_set_attributes(node)
        self.generic_visit(node)

    def _collect_set_attributes(self, module: ast.Module) -> None:
        """Pre-pass: attribute names annotated (or initialised) as sets."""
        for node in ast.walk(module):
            if isinstance(node, ast.AnnAssign) and self._is_set_annotation(
                node.annotation
            ):
                target = node.target
                if isinstance(target, ast.Attribute):
                    self.unordered_attrs.add(target.attr)
            elif isinstance(node, ast.Assign):
                if self._expr_class(node.value) != "unordered":
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.unordered_attrs.add(target.attr)

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        try:
            text = ast.unparse(annotation)
        except Exception:  # pragma: no cover - malformed annotation
            return False
        head = text.split("[", 1)[0].strip()
        return head.split(".")[-1] in ("set", "Set", "frozenset", "FrozenSet")

    # Scope management --------------------------------------------------

    def _enter_scope(self, node: ast.AST) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    # Taint classification ----------------------------------------------

    def _expr_class(self, node: Optional[ast.AST]) -> str:
        """Classify an expression: 'unordered', 'ordered', or 'unknown'."""
        if node is None:
            return "unknown"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "unordered"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return "unordered"
                if func.id in ("sorted",):
                    return "ordered"
                if func.id in ("list", "tuple") and node.args:
                    # list(a_set) freezes the arbitrary order: still tainted.
                    return self._expr_class(node.args[0])
            return "unknown"
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._expr_class(node.generators[0].iter)
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope.unordered_names:
                    return "unordered"
            return "unknown"
        if isinstance(node, ast.Attribute):
            if node.attr in self.unordered_attrs:
                return "unordered"
            return "unknown"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._expr_class(node.left)
            right = self._expr_class(node.right)
            if "unordered" in (left, right):
                return "unordered"
            return "unknown"
        return "unknown"

    def _bind(self, target: ast.AST, klass: str) -> None:
        if not isinstance(target, ast.Name):
            return
        scope = self._scopes[-1]
        if klass == "unordered":
            scope.unordered_names.add(target.id)
        else:
            scope.unordered_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        klass = self._expr_class(node.value)
        for target in node.targets:
            self._bind(target, klass)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if self._is_set_annotation(node.annotation):
            self._bind(node.target, "unordered")
        elif node.value is not None:
            self._bind(node.target, self._expr_class(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        if self._expr_class(node.value) == "unordered":
            self._bind(node.target, "unordered")

    # Sinks --------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._expr_class(node.iter) == "unordered":
            sensitive = self._order_sensitive_operation(node.body)
            if sensitive is not None:
                self.ctx.report(
                    RD003, node,
                    f"iterating an unordered set while the loop body calls "
                    f"{sensitive}; wrap the iterable in sorted() (or order "
                    "it deterministically) so the run does not depend on "
                    "set iteration order",
                )
        self.generic_visit(node)

    def _order_sensitive_operation(self, body: List[ast.stmt]) -> Optional[str]:
        """Name of the first order-sensitive call in ``body``, if any."""
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "heappush":
                    return "heappush()"
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in ORDER_SENSITIVE_METHODS:
                    return f".{func.attr}()"
                if func.attr in RNG_DRAW_METHODS and self._is_rngish(func.value):
                    return f"rng.{func.attr}()"
        return None

    @staticmethod
    def _is_rngish(node: ast.AST) -> bool:
        """Whether an expression plausibly denotes an RNG instance."""
        text: str
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.Call):
            # e.g. self.rng.stream("policies").sample(...)
            func = node.func
            text = func.attr if isinstance(func, ast.Attribute) else ""
            if isinstance(func, ast.Attribute) and UnorderedIterationVisitor._is_rngish(
                func.value
            ):
                return True
        else:
            return False
        lowered = text.lower()
        return "rng" in lowered or "random" in lowered or lowered == "stream"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in RNG_SELECTION_METHODS
            and self._is_rngish(func.value)
            and node.args
            and self._expr_class(node.args[0]) == "unordered"
        ):
            self.ctx.report(
                RD003, node,
                f"rng.{func.attr}() over a set-derived population: the "
                "draw depends on set iteration order; sort the population "
                "first",
            )
        self.generic_visit(node)


@register_visitor("RD004")
class FloatTimestampEqualityVisitor(_ImportTracker):
    """RD004: exact equality between two simulation timestamps."""

    @staticmethod
    def _timestamp_like(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        if name in TIMESTAMP_NAMES or name.endswith(TIMESTAMP_SUFFIXES):
            return name
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left_name = self._timestamp_like(left)
            right_name = self._timestamp_like(right)
            if left_name and right_name:
                self.ctx.report(
                    RD004, node,
                    f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                    f"between float timestamps {left_name!r} and "
                    f"{right_name!r}; accumulated float time makes exact "
                    "equality rounding-dependent — compare with a tolerance "
                    "or <=/>= window checks",
                )
        self.generic_visit(node)


@register_visitor("RD005")
class EngineHeapMutationVisitor(_ImportTracker):
    """RD005: engine internals touched outside ``repro.sim.engine``.

    ``self._heap`` / ``self._now`` inside a class's own methods are that
    class's private state (e.g. ``QueryCache`` keeps its own heap) and
    are not flagged; the rule targets reaching *into another object* —
    ``sim._heap``, ``engine._now = ...`` — which bypasses ``schedule()``.
    """

    @staticmethod
    def _is_own_state(node: ast.Attribute) -> bool:
        return isinstance(node.value, ast.Name) and node.value.id in (
            "self",
            "cls",
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.ctx.is_engine_module and not self._is_own_state(node):
            if node.attr in ENGINE_HEAP_ATTRS:
                self.ctx.report(
                    RD005, node,
                    f"direct access to engine internal `.{node.attr}` "
                    "bypasses schedule()'s (time, priority, seq) ordering "
                    "invariant; use schedule()/schedule_after()",
                )
            elif node.attr == ENGINE_CLOCK_ATTR and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.ctx.report(
                    RD005, node,
                    "rewinding or overwriting the engine clock `._now` "
                    "breaks event ordering; drive time with run_until()",
                )
        self.generic_visit(node)
