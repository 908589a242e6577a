"""Per-module extraction: symbol tables, direct effects, raw call sites.

One :class:`ModuleTable` is built per analyzed module.  It records

* import aliases (``import x as y`` / ``from m import f``),
* every module-level function, class, and method as a
  :class:`~repro.devtools.effects.model.FunctionInfo`,
* the *direct* effects each function's own statements perform,
* raw (unresolved) call sites, resolved later against the whole program
  by :mod:`repro.devtools.effects.callgraph`, and
* RNG substream-naming call sites (``derive_seed``/``.stream``) for the
  RD007 constant-prefix check.

Nested functions, lambdas, and comprehensions are attributed to their
enclosing top-level function or method: defining a closure is free, but
the analysis conservatively assumes the encloser may invoke it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.devtools.effects.model import Effect, EffectSite, FunctionInfo
from repro.devtools.pragmas import PragmaIndex, SuppressionIndex
from repro.devtools.visitors import (
    RNG_DRAW_METHODS,
    WALLCLOCK_DATETIME_METHODS,
    WALLCLOCK_TIME_FUNCS,
    FileContext,
    UnorderedIterationVisitor,
)

#: Attribute names that (heuristically) insert into the engine schedule.
SCHEDULE_ATTRS = frozenset({"schedule", "schedule_after", "run_until"})

#: ``os`` functions that touch the filesystem.
OS_FILE_FUNCS = frozenset(
    {
        "remove", "unlink", "rename", "replace", "fsync", "makedirs",
        "mkdir", "rmdir", "listdir", "scandir", "open", "fdopen", "stat",
        "chmod", "truncate",
    }
)

#: Attribute names that read/write paths when called on a path (the call
#: graph decides which receivers are, ``RawCall.outside``).
PATH_IO_ATTRS = frozenset(
    {
        "write_text", "read_text", "write_bytes", "read_bytes",
        "mkdir", "rmdir", "unlink", "touch", "iterdir", "glob", "rglob",
    }
)

#: Modules whose every function is considered file I/O.
FILE_IO_MODULES = frozenset({"shutil", "tempfile"})

#: Receiver kinds a raw call may carry (see :class:`RawCall`).
RECV_MODULE = "module"
RECV_SELF = "self"
RECV_TYPED = "typed"


@dataclass(frozen=True, slots=True)
class RawCall:
    """An unresolved call site.

    ``func_name`` is set for bare-name calls (``helper(...)``); ``attr``
    plus ``receiver`` for attribute calls (``obj.method(...)``), where
    ``receiver`` is ``(kind, value)``: a module fqn, the local class name
    of ``self``/``cls``, a statically known instance type, or ``None``.
    ``outside`` marks a :data:`PATH_IO_ATTRS` call whose receiver is
    evidently no program object: a ``/`` join, or rooted at a name
    imported from outside ``repro`` (``Path(p).touch()``).
    """

    line: int
    func_name: Optional[str] = None
    attr: Optional[str] = None
    receiver: Optional[Tuple[str, str]] = None
    outside: bool = False


@dataclass(frozen=True, slots=True)
class StreamNameCall:
    """One ``derive_seed``/``.stream`` call site with its name argument.

    ``literal_prefix`` is the longest provable literal prefix of the
    stream-name argument (the full string for plain literals, the leading
    literal chunk for f-strings/concatenations), or ``None`` when nothing
    about the name can be proven statically.
    """

    line: int
    function: str
    callee: str
    literal_prefix: Optional[str]
    is_constant: bool


@dataclass(frozen=True, slots=True)
class ImportSite:
    """One ``import``/``from ... import`` of a module, for RD009."""

    module: str
    line: int
    type_checking: bool


@dataclass
class ClassInfo:
    """One class: methods, base-class names, and known attribute types."""

    name: str
    qualname: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleTable:
    """Everything the effect engine knows about one module."""

    name: str
    path: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    raw_calls: Dict[str, List[RawCall]] = field(default_factory=dict)
    stream_calls: List[StreamNameCall] = field(default_factory=list)
    import_sites: List[ImportSite] = field(default_factory=list)
    pragmas: SuppressionIndex = field(
        default_factory=lambda: SuppressionIndex(PragmaIndex({}, []), [])
    )

    def all_functions(self) -> List[FunctionInfo]:
        infos = list(self.functions.values())
        for cls in self.classes.values():
            infos.extend(cls.methods.values())
        return infos


def _literal_prefix(node: Optional[ast.expr]) -> Tuple[Optional[str], bool]:
    """``(provable literal prefix, is the whole name constant)``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, False
        return None, False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        prefix, _ = _literal_prefix(node.left)
        return prefix, False
    return None, False


class _ModuleExtractor(ast.NodeVisitor):
    """Single pass over one module's AST filling a :class:`ModuleTable`."""

    def __init__(self, table: ModuleTable) -> None:
        self.table = table
        module_fn = FunctionInfo(
            qualname=f"{table.name}.<module>",
            module=table.name,
            path=table.path,
            lineno=1,
        )
        table.functions["<module>"] = module_fn
        table.raw_calls[module_fn.qualname] = []
        #: Enclosing top-level function/method every node is attributed to.
        self._current: FunctionInfo = module_fn
        self._current_class: Optional[ClassInfo] = None
        self._class_nesting = 0
        #: Local name -> local class name, per top-level function.
        self._local_types: Dict[str, str] = {}
        #: Local name -> the rng draw method bound to it
        #: (``getrandbits = rng.getrandbits``), per top-level function.
        self._draw_aliases: Dict[str, str] = {}
        self._type_checking_depth = 0

    # Imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.table.module_aliases[local] = alias.name
            self.table.import_sites.append(
                ImportSite(alias.name, node.lineno, self._type_checking_depth > 0)
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level > 0:
            # Approximate relative imports against the dotted module name;
            # the repro tree uses absolute imports throughout (ruff/isort).
            parts = self.table.name.split(".")
            base = parts[: -node.level] if node.level < len(parts) else []
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            self.table.from_imports[local] = (module, alias.name)
        self.table.import_sites.append(
            ImportSite(module, node.lineno, self._type_checking_depth > 0)
        )

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        is_type_checking = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_type_checking:
            self._type_checking_depth += 1
            self.generic_visit(node)
            self._type_checking_depth -= 1
            return
        if self._is_main_guard(test):
            # ``if __name__ == "__main__":`` bodies run only when the file
            # is executed as a script, never at import time, so they are
            # not module-level effects; the guarded entry point (usually
            # ``main``) is still analyzed as its own function.
            for orelse in node.orelse:
                self.visit(orelse)
            return
        self.generic_visit(node)

    @staticmethod
    def _is_main_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__"
        )

    # Definitions --------------------------------------------------------

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        at_top = (
            self._current.qualname.endswith(".<module>")
            and self._class_nesting == 0
        )
        if not at_top:
            # Nested def/closure: attribute its body to the encloser.
            self.generic_visit(node)
            return
        cls = self._current_class
        if cls is not None:
            qualname = f"{cls.qualname}.{node.name}"
        else:
            qualname = f"{self.table.name}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=self.table.name,
            path=self.table.path,
            lineno=node.lineno,
        )
        if cls is not None:
            cls.methods[node.name] = info
        else:
            self.table.functions[node.name] = info
        self.table.raw_calls[qualname] = []

        outer = self._current, self._local_types, self._draw_aliases
        self._current, self._local_types, self._draw_aliases = info, {}, {}
        self._bind_annotated_params(node)
        for stmt in node.body:
            self.visit(stmt)
        self._current, self._local_types, self._draw_aliases = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _bind_annotated_params(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = list(node.args.posonlyargs) + list(node.args.args)
        args += list(node.args.kwonlyargs)
        for arg in args:
            class_name = self._annotation_class(arg.annotation)
            if class_name is not None:
                self._local_types[arg.arg] = class_name

    @staticmethod
    def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
        """Local class name an annotation denotes, if it is a plain name."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            text = annotation.value.strip()
            return text if text.isidentifier() else None
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Attribute):
            return annotation.attr
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._current_class is not None or not self._current.qualname.endswith(
            ".<module>"
        ):
            # Nested class: treat its body like closure code.
            self._class_nesting += 1
            self.generic_visit(node)
            self._class_nesting -= 1
            return
        cls = ClassInfo(
            name=node.name,
            qualname=f"{self.table.name}.{node.name}",
            lineno=node.lineno,
        )
        for base in node.bases:
            if isinstance(base, ast.Name):
                cls.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                cls.bases.append(base.attr)
        self.table.classes[node.name] = cls
        self._collect_attr_types(node, cls)
        self._current_class = cls
        for stmt in node.body:
            self.visit(stmt)
            if isinstance(stmt, ast.Assign):
                self._alias_method(cls, stmt)
        self._current_class = None

    def _alias_method(self, cls: ClassInfo, node: ast.Assign) -> None:
        """``b = a`` in a class body, ``a`` a method: ``b`` is a method calling ``a``.

        The alias is a name a caller can reach the same body through, so
        it gets a table row of its own and inherits ``a``'s effects.
        """
        value = node.value
        if not isinstance(value, ast.Name) or value.id not in cls.methods:
            return
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            qualname = f"{cls.qualname}.{target.id}"
            cls.methods[target.id] = FunctionInfo(
                qualname=qualname,
                module=self.table.name,
                path=self.table.path,
                lineno=node.lineno,
            )
            self.table.raw_calls[qualname] = [
                RawCall(line=node.lineno, attr=value.id, receiver=(RECV_SELF, cls.name))
            ]

    @staticmethod
    def _collect_attr_types(node: ast.ClassDef, cls: ClassInfo) -> None:
        """``self.x: C`` / ``self.x = C(...)`` anywhere in the class body."""
        for child in ast.walk(node):
            if isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Attribute
            ):
                name = _ModuleExtractor._annotation_class(child.annotation)
                if name is not None:
                    cls.attr_types.setdefault(child.target.attr, name)
            elif isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Call
            ):
                func = child.value.func
                if not isinstance(func, ast.Name):
                    continue
                for target in child.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, func.id)

    # Receiver / type tracking ------------------------------------------

    def _receiver_of(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self._current_class is not None:
                return (RECV_SELF, self._current_class.name)
            if node.id in self._local_types:
                return (RECV_TYPED, self._local_types[node.id])
            module = self.table.module_aliases.get(node.id)
            if module is not None:
                return (RECV_MODULE, module)
            if node.id in self.table.classes or node.id in self.table.from_imports:
                return (RECV_TYPED, node.id)
            return None
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self._current_class is not None
            ):
                attr_type = self._current_class.attr_types.get(node.attr)
                if attr_type is not None:
                    return (RECV_TYPED, attr_type)
            # Dotted module: ``os.path.join`` -> module "os.path".
            flat = self._flatten_dotted(node)
            if flat is not None and flat in self.table.module_aliases.values():
                return (RECV_MODULE, flat)
        return None

    @staticmethod
    def _flatten_dotted(node: ast.Attribute) -> Optional[str]:
        parts = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
            return ".".join(reversed(parts))
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        # ``getrandbits = rng.getrandbits``: a later ``getrandbits(k)`` draws.
        # A tuple target takes a tuple value element by element
        # (``rand, floor = rng.random, math.floor``); a name with no value
        # of its own (``a, b = pair``) binds no alias.
        pairs: List[Tuple[ast.expr, Optional[ast.expr]]] = [
            (target, node.value) for target in node.targets
        ]
        while pairs:
            target, value = pairs.pop(0)
            if isinstance(target, (ast.Tuple, ast.List)):
                values: List[Optional[ast.expr]] = [None] * len(target.elts)
                if (
                    isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)
                    and not any(isinstance(v, ast.Starred) for v in value.elts)
                ):
                    values = list(value.elts)
                pairs.extend(zip(target.elts, values))
            elif isinstance(target, ast.Name):
                drawn = (
                    value.attr
                    if isinstance(value, ast.Attribute)
                    and value.attr in RNG_DRAW_METHODS
                    and UnorderedIterationVisitor._is_rngish(value.value)
                    else None
                )
                if drawn is None:
                    self._draw_aliases.pop(target.id, None)
                else:
                    self._draw_aliases[target.id] = drawn
        # ``v = ClassName(...)`` binds a local instance type.
        if isinstance(node.value, ast.Call) and isinstance(
            node.value.func, ast.Name
        ):
            name = node.value.func.id
            if name in self.table.classes or name in self.table.from_imports:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._local_types[target.id] = name
        # Module attribute stores are global mutation.
        for target in node.targets:
            self._check_global_store(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            name = self._annotation_class(node.annotation)
            if name is not None and (
                name in self.table.classes or name in self.table.from_imports
            ):
                self._local_types[node.target.id] = name
        self._check_global_store(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        self._check_global_store(node.target)

    def _check_global_store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            module = None
            if isinstance(target.value, ast.Name):
                module = self.table.module_aliases.get(target.value.id)
            if module is not None:
                self._effect(
                    Effect.GLOBAL_MUT,
                    target,
                    f"assignment to module attribute {module}.{target.attr}",
                )
        elif isinstance(target, ast.Subscript):
            value = target.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "environ"
                and isinstance(value.value, ast.Name)
                and self.table.module_aliases.get(value.value.id) == "os"
            ):
                self._effect(
                    Effect.GLOBAL_MUT, target, "assignment into os.environ"
                )

    def visit_Global(self, node: ast.Global) -> None:
        if not self._current.qualname.endswith(".<module>"):
            self._effect(
                Effect.GLOBAL_MUT,
                node,
                f"global statement rebinding {', '.join(node.names)}",
            )

    # Calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        raw: Optional[RawCall] = None
        if isinstance(func, ast.Name):
            raw = RawCall(line=node.lineno, func_name=func.id)
            self._direct_effects_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            receiver = self._receiver_of(func.value)
            outside = func.attr in PATH_IO_ATTRS and self._outside(func.value, receiver)
            raw = RawCall(
                line=node.lineno, attr=func.attr, receiver=receiver, outside=outside
            )
            self._direct_effects_attr_call(node, func, receiver)
        if raw is not None:
            self.table.raw_calls[self._current.qualname].append(raw)

    def _direct_effects_name_call(self, node: ast.Call, name: str) -> None:
        drawn = self._draw_aliases.get(name)
        if drawn is not None:
            self._effect(Effect.RNG_DRAW, node, f"rng.{drawn}() draw via {name}")
        elif name == "open":
            self._effect(Effect.FILE_IO, node, "open() call")
        elif name == "derive_seed" or (
            self.table.from_imports.get(name, ("", ""))
            == ("repro.sim.rng", "derive_seed")
        ):
            self._effect(Effect.RNG_DRAW, node, "derive_seed() consumption")
        else:
            from_import = self.table.from_imports.get(name)
            if from_import is not None and from_import[0] == "random":
                if from_import[1] in ("Random", "SystemRandom"):
                    self._effect(
                        Effect.RNG_DRAW, node, f"random.{from_import[1]}() construction"
                    )
                else:
                    self._effect(
                        Effect.RNG_DRAW, node, f"random.{from_import[1]}() draw"
                    )
            elif from_import is not None and (
                from_import[0] == "time"
                and from_import[1] in WALLCLOCK_TIME_FUNCS
            ):
                self._effect(
                    Effect.WALLCLOCK, node, f"time.{from_import[1]}() read"
                )
            elif from_import is not None and from_import[0] in FILE_IO_MODULES:
                self._effect(
                    Effect.FILE_IO,
                    node,
                    f"{from_import[0]}.{from_import[1]}() call",
                )

    def _direct_effects_attr_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        receiver: Optional[Tuple[str, str]],
    ) -> None:
        attr = func.attr
        module = receiver[1] if receiver and receiver[0] == RECV_MODULE else None
        if module == "time" and attr in WALLCLOCK_TIME_FUNCS:
            self._effect(Effect.WALLCLOCK, node, f"time.{attr}() read")
            return
        if attr in WALLCLOCK_DATETIME_METHODS and self._is_datetime_receiver(
            func.value
        ):
            self._effect(Effect.WALLCLOCK, node, f"datetime {attr}() read")
            return
        if module == "random":
            if attr in ("Random", "SystemRandom"):
                self._effect(
                    Effect.RNG_DRAW, node, f"random.{attr}() construction"
                )
            else:
                self._effect(Effect.RNG_DRAW, node, f"random.{attr}() draw")
            return
        if module == "os" and attr in OS_FILE_FUNCS:
            self._effect(Effect.FILE_IO, node, f"os.{attr}() call")
            return
        if module in FILE_IO_MODULES:
            self._effect(Effect.FILE_IO, node, f"{module}.{attr}() call")
            return
        if attr in SCHEDULE_ATTRS:
            self._effect(Effect.SCHEDULE, node, f".{attr}() event insertion")
            return
        rngish = UnorderedIterationVisitor._is_rngish(func.value)
        if attr in RNG_DRAW_METHODS and rngish:
            self._effect(Effect.RNG_DRAW, node, f"rng.{attr}() draw")
        elif attr == "stream" and rngish:
            self._effect(Effect.RNG_DRAW, node, "rng.stream() acquisition")
        elif attr == "derive_seed":
            self._effect(Effect.RNG_DRAW, node, "derive_seed() consumption")

    def _outside(self, value: ast.expr, receiver: Optional[Tuple[str, str]]) -> bool:
        """Whether a receiver is evidently no program object (``RawCall.outside``)."""
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
            return True
        if receiver is not None and receiver[0] == RECV_TYPED:
            name = receiver[1]
        else:
            while isinstance(value, (ast.Call, ast.Attribute, ast.Subscript)):
                value = value.func if isinstance(value, ast.Call) else value.value
            name = value.id if isinstance(value, ast.Name) else ""
        origin = self.table.from_imports.get(name)
        module = origin[0] if origin else self.table.module_aliases.get(name)
        return module is not None and module.split(".")[0] != "repro"

    def _is_datetime_receiver(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Attribute):
            return (
                value.attr in ("datetime", "date")
                and isinstance(value.value, ast.Name)
                and self.table.module_aliases.get(value.value.id) == "datetime"
            )
        if isinstance(value, ast.Name):
            from_import = self.table.from_imports.get(value.id)
            return from_import is not None and from_import == (
                "datetime",
                value.id,
            )
        return False

    # Recording ----------------------------------------------------------

    def _effect(self, effect: Effect, node: ast.AST, detail: str) -> None:
        self._current.add_direct(
            effect,
            EffectSite(
                path=self.table.path,
                line=getattr(node, "lineno", self._current.lineno),
                detail=detail,
            ),
        )


class _StreamNameCollector(ast.NodeVisitor):
    """Second pass: ``derive_seed``/``.stream`` name arguments (RD007)."""

    def __init__(self, table: ModuleTable, extents: "FunctionExtents") -> None:
        self.table = table
        self.extents = extents

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        name_arg: Optional[ast.expr] = None
        callee: Optional[str] = None
        if isinstance(func, ast.Name) and func.id == "derive_seed":
            callee = "derive_seed"
            if len(node.args) >= 2:
                name_arg = node.args[1]
        elif isinstance(func, ast.Attribute):
            if func.attr == "derive_seed":
                callee = "derive_seed"
                if len(node.args) >= 2:
                    name_arg = node.args[1]
            elif func.attr == "stream" and UnorderedIterationVisitor._is_rngish(
                func.value
            ):
                callee = "stream"
                if node.args:
                    name_arg = node.args[0]
        if callee is None:
            return
        prefix, constant = _literal_prefix(name_arg)
        self.table.stream_calls.append(
            StreamNameCall(
                line=node.lineno,
                function=self.extents.function_at(node.lineno),
                callee=callee,
                literal_prefix=prefix,
                is_constant=constant,
            )
        )


class FunctionExtents:
    """Maps a line number to the qualname of the innermost enclosing def."""

    def __init__(self, table: ModuleTable) -> None:
        self._spans: List[Tuple[int, int, str]] = []
        self._module_qualname = f"{table.name}.<module>"

    def add(self, start: int, end: int, qualname: str) -> None:
        self._spans.append((start, end, qualname))

    def function_at(self, line: int) -> str:
        best: Optional[Tuple[int, int, str]] = None
        for start, end, qualname in self._spans:
            if start <= line <= end and (best is None or start > best[0]):
                best = (start, end, qualname)
        return best[2] if best is not None else self._module_qualname


def _build_extents(tree: ast.Module, table: ModuleTable) -> FunctionExtents:
    extents = FunctionExtents(table)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extents.add(
                node.lineno,
                node.end_lineno or node.lineno,
                f"{table.name}.{node.name}",
            )
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    extents.add(
                        item.lineno,
                        item.end_lineno or item.lineno,
                        f"{table.name}.{node.name}.{item.name}",
                    )
    return extents


def _collect_unordered_iteration(
    tree: ast.Module, table: ModuleTable, extents: FunctionExtents
) -> None:
    """Attribute RD003-style unordered-iteration findings as effects."""
    functions = {info.qualname: info for info in table.all_functions()}

    def report(rule: object, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        info = functions.get(extents.function_at(line))
        if info is not None:
            info.add_direct(
                Effect.UNORDERED_ITER,
                EffectSite(path=table.path, line=line, detail=message),
            )

    ctx = FileContext(path=table.path, report=report)
    UnorderedIterationVisitor(ctx).visit(tree)


def extract_module(name: str, path: str, source: str) -> ModuleTable:
    """Parse ``source`` and build its :class:`ModuleTable`.

    Raises:
        SyntaxError: the module does not parse; the caller reports it as
            a file-level error (exit code 2 from the CLI).
    """
    tree = ast.parse(source, filename=path)
    table = ModuleTable(name=name, path=path)
    table.pragmas = SuppressionIndex.from_source(source, tree)
    _ModuleExtractor(table).visit(tree)
    extents = _build_extents(tree, table)
    _StreamNameCollector(table, extents).visit(tree)
    _collect_unordered_iteration(tree, table, extents)
    return table
