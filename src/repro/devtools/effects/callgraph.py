"""Whole-program call graph over a set of analyzed modules.

Resolution strategy (most to least precise, first match wins):

1. bare-name calls resolve through the module's own defs and its
   ``from``-imports into other program modules (including class
   constructors, which resolve to ``Class.__init__``);
2. attribute calls on a module alias resolve to that module's functions
   and classes;
3. attribute calls on ``self``/``cls`` resolve within the enclosing class
   and its program-resident base classes;
4. attribute calls on a receiver with a statically known class (parameter
   annotation, ``v = ClassName(...)`` binding, or ``self.attr``
   class-body type) resolve the same way;
5. otherwise, if the method name is defined by **exactly one** class in
   the whole program — and is not a common container/stdlib method name —
   the call resolves to that method;
6. anything else is *unknown* and contributes no effects (conservative:
   the analysis never invents effects it cannot locate, mirroring the
   false-positive-averse RD001-RD005 visitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.devtools.effects.model import CallEdge, Effect, EffectSite, FunctionInfo
from repro.devtools.effects.symbols import (
    PATH_IO_ATTRS,
    RECV_MODULE,
    RECV_SELF,
    RECV_TYPED,
    ClassInfo,
    ModuleTable,
    RawCall,
    extract_module,
)

#: Method names too generic for the unique-definer fallback: they collide
#: with builtin container / concurrent.futures / IO methods, so a single
#: program class defining one must not capture every call to it.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "add", "append", "cancel", "clear", "close", "copy", "count",
        "extend", "get", "index", "insert", "items", "join", "keys", "map",
        "pop", "popleft", "put", "read", "remove", "result", "run", "set",
        "sort", "split", "start", "stop", "strip", "submit", "update",
        "values", "wait", "write",
    }
)


@dataclass
class Program:
    """All analyzed modules plus cross-module resolution indexes."""

    modules: Dict[str, ModuleTable] = field(default_factory=dict)
    #: Every function by qualname (module functions + methods).
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Every class by fully qualified name.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Method name -> class fqns defining it (for the uniqueness fallback).
    method_definers: Dict[str, List[str]] = field(default_factory=dict)
    #: File-level problems (unreadable/unparsable files).
    errors: List[str] = field(default_factory=list)


def build_program(sources: Dict[str, Tuple[str, str]]) -> Program:
    """Build and resolve a program from ``{module: (path, source)}``."""
    program = Program()
    for name in sorted(sources):
        path, source = sources[name]
        try:
            table = extract_module(name, path, source)
        except SyntaxError as exc:
            program.errors.append(
                f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
            )
            continue
        program.modules[name] = table
        for info in table.all_functions():
            program.functions[info.qualname] = info
        for cls in table.classes.values():
            program.classes[cls.qualname] = cls
            for method in cls.methods:
                program.method_definers.setdefault(method, []).append(
                    cls.qualname
                )
    _resolve_calls(program)
    return program


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------


def _class_fqn(table: ModuleTable, local_name: str, program: Program) -> Optional[str]:
    """Fully qualified class name a local name denotes, if resolvable."""
    if local_name in table.classes:
        return table.classes[local_name].qualname
    from_import = table.from_imports.get(local_name)
    if from_import is not None:
        module, original = from_import
        target = program.modules.get(module)
        if target is not None and original in target.classes:
            return target.classes[original].qualname
    return None


def _lookup_method(
    program: Program, class_fqn: str, method: str, _depth: int = 0
) -> Optional[str]:
    """Resolve ``method`` on ``class_fqn``, walking program-resident bases."""
    if _depth > 8:
        return None
    cls = program.classes.get(class_fqn)
    if cls is None:
        return None
    if method in cls.methods:
        return cls.methods[method].qualname
    owner_module = program.modules.get(class_fqn.rsplit(".", 1)[0])
    if owner_module is None:
        return None
    for base in cls.bases:
        base_fqn = _class_fqn(owner_module, base, program)
        if base_fqn is not None:
            found = _lookup_method(program, base_fqn, method, _depth + 1)
            if found is not None:
                return found
    return None


def _resolve_constructor(program: Program, class_fqn: str) -> Optional[str]:
    return _lookup_method(program, class_fqn, "__init__")


def _resolve_name_call(
    program: Program, table: ModuleTable, call: RawCall
) -> Optional[str]:
    name = call.func_name
    assert name is not None
    if name in table.functions and name != "<module>":
        return table.functions[name].qualname
    if name in table.classes:
        return _resolve_constructor(program, table.classes[name].qualname)
    from_import = table.from_imports.get(name)
    if from_import is not None:
        module, original = from_import
        target = program.modules.get(module)
        if target is None:
            return None
        if original in target.functions:
            return target.functions[original].qualname
        if original in target.classes:
            return _resolve_constructor(
                program, target.classes[original].qualname
            )
    return None


def _resolve_attr_call(
    program: Program, table: ModuleTable, owner: FunctionInfo, call: RawCall
) -> Optional[str]:
    attr = call.attr
    assert attr is not None
    receiver = call.receiver
    if receiver is not None:
        kind, value = receiver
        if kind == RECV_MODULE:
            target = program.modules.get(value)
            if target is None:
                return None
            if attr in target.functions:
                return target.functions[attr].qualname
            if attr in target.classes:
                return _resolve_constructor(
                    program, target.classes[attr].qualname
                )
            return None
        if kind in (RECV_SELF, RECV_TYPED):
            fqn = _class_fqn(table, value, program)
            if fqn is not None:
                resolved = _lookup_method(program, fqn, attr)
                if resolved is not None:
                    return resolved
            # A known receiver with an unknown method falls through to
            # the uniqueness heuristic below.
    if attr in AMBIGUOUS_METHOD_NAMES:
        return None
    definers = program.method_definers.get(attr)
    if definers is not None and len(definers) == 1:
        return _lookup_method(program, definers[0], attr)
    return None


def _path_io(
    program: Program, table: ModuleTable, owner: FunctionInfo, call: RawCall
) -> None:
    """Tag a :data:`PATH_IO_ATTRS` call as path I/O unless it is the program's.

    A receiver that may be a program object is presumed to be one when a
    program class defines the method, so ``entry.touch(now)`` is
    ``CacheEntry.touch``; an evidently outside receiver, or a name no
    program class defines, is path I/O.  The first site in source order
    wins, as for every direct effect.
    """
    if call.receiver is not None and call.receiver[0] == RECV_MODULE:
        return
    if not call.outside and call.attr in program.method_definers:
        return
    first = owner.direct.get(Effect.FILE_IO)
    if first is None or call.line < first.line:
        owner.direct[Effect.FILE_IO] = EffectSite(
            table.path, call.line, f".{call.attr}() path I/O"
        )


def _resolve_calls(program: Program) -> None:
    """Fill every function's resolved ``calls`` list from its raw calls."""
    for module_name in sorted(program.modules):
        table = program.modules[module_name]
        for qualname in sorted(table.raw_calls):
            owner = program.functions.get(qualname)
            if owner is None:
                continue
            for call in table.raw_calls[qualname]:
                resolved: Optional[str] = None
                if call.func_name is not None:
                    resolved = _resolve_name_call(program, table, call)
                elif call.attr is not None:
                    resolved = _resolve_attr_call(program, table, owner, call)
                    if call.attr in PATH_IO_ATTRS:
                        _path_io(program, table, owner, call)
                if resolved is not None and resolved != qualname:
                    owner.calls.append(CallEdge(callee=resolved, line=call.line))
                elif resolved is None:
                    owner.unknown_calls += 1
