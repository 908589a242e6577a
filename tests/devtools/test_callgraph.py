"""Unit tests for call-graph construction and effect propagation.

Covers the three properties the contract checker leans on:

* attribute-call resolution (module aliases, ``self`` with base-class
  walk, constructor-bound locals, the unique-definer fallback and its
  ambiguity blocklist);
* cycle tolerance — mutual recursion reaches a fixpoint and both parties
  carry the cycle's effects;
* unknown-call conservatism — calls the graph cannot resolve add no
  effects (the dynamic trace-hash pins backstop them) but are *counted*,
  so the report can show how much of the graph is dark.
"""

from __future__ import annotations

from typing import Dict

from repro.devtools.effects.callgraph import (
    AMBIGUOUS_METHOD_NAMES,
    build_program,
)
from repro.devtools.effects.inference import apply_intrinsics, propagate
from repro.devtools.effects.model import Effect


def program_of(modules: Dict[str, str]):
    """Build a Program from ``{dotted module name: source}``."""
    sources = {
        name: ("src/" + name.replace(".", "/") + ".py", text)
        for name, text in modules.items()
    }
    return build_program(sources)


def edges(program, qualname):
    return {edge.callee for edge in program.functions[qualname].calls}


class TestResolution:
    def test_module_alias_attribute_call(self):
        program = program_of(
            {
                "repro.alpha": "def helper():\n    return 1\n",
                "repro.beta": (
                    "import repro.alpha as alpha\n\n"
                    "def caller():\n    return alpha.helper()\n"
                ),
            }
        )
        assert "repro.alpha.helper" in edges(program, "repro.beta.caller")

    def test_from_import_name_call(self):
        program = program_of(
            {
                "repro.alpha": "def helper():\n    return 1\n",
                "repro.beta": (
                    "from repro.alpha import helper\n\n"
                    "def caller():\n    return helper()\n"
                ),
            }
        )
        assert "repro.alpha.helper" in edges(program, "repro.beta.caller")

    def test_self_method_with_base_class_walk(self):
        program = program_of(
            {
                "repro.alpha": (
                    "class Base:\n"
                    "    def step(self):\n"
                    "        return 0\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                ),
            }
        )
        assert "repro.alpha.Base.step" in edges(program, "repro.alpha.Child.run")

    def test_class_body_alias_is_a_method_calling_its_target(self):
        program = program_of(
            {
                "repro.alpha": (
                    "class Picker:\n"
                    "    def pick(self, rng, items):\n"
                    "        return items[rng.randrange(len(items))]\n"
                    "\n"
                    "    evict = pick\n"
                ),
            }
        )
        apply_intrinsics(program)
        table = propagate(program)
        assert edges(program, "repro.alpha.Picker.evict") == {"repro.alpha.Picker.pick"}
        assert Effect.RNG_DRAW in table.effects["repro.alpha.Picker.evict"]

    def test_constructor_bound_local(self):
        program = program_of(
            {
                "repro.alpha": (
                    "class Worker:\n"
                    "    def run_task(self):\n"
                    "        return 1\n"
                    "\n"
                    "def main():\n"
                    "    worker = Worker()\n"
                    "    return worker.run_task()\n"
                ),
            }
        )
        assert "repro.alpha.Worker.run_task" in edges(program, "repro.alpha.main")

    def test_unique_definer_fallback(self):
        # No type info for `thing`, but exactly one class in the whole
        # program defines `frobnicate`, so the edge resolves to it.
        program = program_of(
            {
                "repro.alpha": (
                    "class Gadget:\n"
                    "    def frobnicate(self):\n"
                    "        return 1\n"
                ),
                "repro.beta": (
                    "def poke(thing):\n    return thing.frobnicate()\n"
                ),
            }
        )
        assert "repro.alpha.Gadget.frobnicate" in edges(program, "repro.beta.poke")

    def test_ambiguous_names_never_fall_back(self):
        # `cancel` is on the blocklist: concurrent.futures.Future.cancel
        # would otherwise be mistaken for a program class's own `cancel`.
        assert "cancel" in AMBIGUOUS_METHOD_NAMES
        program = program_of(
            {
                "repro.alpha": (
                    "class Handle:\n"
                    "    def cancel(self):\n"
                    "        return 1\n"
                ),
                "repro.beta": (
                    "def stop(thing):\n    return thing.cancel()\n"
                ),
            }
        )
        assert "repro.alpha.Handle.cancel" not in edges(program, "repro.beta.stop")
        assert program.functions["repro.beta.stop"].unknown_calls >= 1


class TestPropagation:
    def test_cycle_reaches_fixpoint_and_shares_effects(self):
        program = program_of(
            {
                "repro.alpha": (
                    "def ping(rng, n):\n"
                    "    if n <= 0:\n"
                    "        return rng.random()\n"
                    "    return pong(rng, n - 1)\n"
                    "\n"
                    "def pong(rng, n):\n"
                    "    return ping(rng, n)\n"
                ),
            }
        )
        apply_intrinsics(program)
        table = propagate(program)
        assert Effect.RNG_DRAW in table.effects_of("repro.alpha.ping")
        assert Effect.RNG_DRAW in table.effects_of("repro.alpha.pong")

    def test_chain_walks_from_root_to_origin(self):
        program = program_of(
            {
                "repro.alpha": (
                    "def leaf():\n"
                    "    return open('x').read()\n"
                    "\n"
                    "def mid():\n"
                    "    return leaf()\n"
                    "\n"
                    "def root():\n"
                    "    return mid()\n"
                ),
            }
        )
        apply_intrinsics(program)
        table = propagate(program)
        chain = table.chain("repro.alpha.root", Effect.FILE_IO)
        assert chain == [
            "repro.alpha.root",
            "repro.alpha.mid",
            "repro.alpha.leaf",
        ]
        site = table.origin_site("repro.alpha.root", Effect.FILE_IO)
        assert site is not None and site.line == 2

    def test_unknown_calls_add_no_effects(self):
        program = program_of(
            {
                "repro.alpha": (
                    "def caller(mystery):\n    return mystery()\n"
                ),
            }
        )
        apply_intrinsics(program)
        table = propagate(program)
        assert table.effects_of("repro.alpha.caller") == frozenset()
        assert program.functions["repro.alpha.caller"].unknown_calls >= 1

    def test_opaque_boundary_blocks_propagation(self):
        modules = {
            "repro.alpha": (
                "def effectful():\n"
                "    return open('x').read()\n"
                "\n"
                "def boundary():\n"
                "    return effectful()\n"
                "\n"
                "def root():\n"
                "    return boundary()\n"
            ),
        }
        program = program_of(modules)
        apply_intrinsics(program)
        table = propagate(program, opaque=("repro.alpha.boundary",))
        assert Effect.FILE_IO not in table.effects_of("repro.alpha.root")
        # Without the boundary the effect flows through.
        fresh = program_of(modules)
        apply_intrinsics(fresh)
        assert Effect.FILE_IO in propagate(fresh).effects_of("repro.alpha.root")

    def test_main_guard_is_not_module_level_code(self):
        program = program_of(
            {
                "repro.alpha": (
                    "def main():\n"
                    "    return open('x').read()\n"
                    "\n"
                    'if __name__ == "__main__":\n'
                    "    main()\n"
                ),
            }
        )
        apply_intrinsics(program)
        table = propagate(program)
        assert Effect.FILE_IO in table.effects_of("repro.alpha.main")
        assert table.effects_of("repro.alpha.<module>") == frozenset()
