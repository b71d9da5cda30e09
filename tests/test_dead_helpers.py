"""Every module-level function of ``_linalg`` and ``_kernel``, and every
private module-level function or class of the package, has a caller in the
package.

A helper that loses its last caller is deleted, not kept for later.  Read off
the syntax tree with ``ast``: a function or class has a caller when its name
occurs, as a name or as an attribute, in some module of ``src/supermalcev``
outside its own definition.  ``EXEMPT`` names the helpers kept without a
caller in the package, each with the reader outside it that needs it.

The package builds every algebra from its rows: ``Superalgebra.from_entries``,
which regroups (i, j, k) triples into rows, is kept for hand-written
constants, and no module but ``fixtures`` calls it.  It is also the one
caller of the validating constructor ``Superalgebra(...)``: the
constructions and the parser, whose rows are computed or already checked,
build through ``Superalgebra._from_rows``."""

import ast
import functools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supermalcev"
HELPERS = ("_linalg", "_kernel")
EXEMPT = {
    "mat_mul": "perfbench/tracing.py counts its calls by this name, and "
               "tests/test_benchmark_tracer.py guards the name",
    "solve": "perfbench/tracing.py counts its calls by this name, and "
             "tests/test_benchmark_tracer.py guards the name",
}


@functools.cache
def parsed(source: str) -> ast.Module:
    return ast.parse(source)


def functions(source: str) -> list[str]:
    return [node.name for node in parsed(source).body if isinstance(node, ast.FunctionDef)]


def private_definitions(source: str) -> list[str]:
    """The module-level functions and classes of ``source`` whose names
    start with one underscore."""
    return [node.name for node in parsed(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def used_names(source: str, defined: str | None = None) -> set[str]:
    """The names and attributes that occur in ``source``, leaving out the
    body of the module-level function or class ``defined``."""
    nodes = [node for node in parsed(source).body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == defined)]
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@functools.cache
def used_elsewhere(source: str) -> frozenset[str]:
    """The names and attributes that occur anywhere in ``source``: those a
    module uses of the definitions of another."""
    return frozenset(used_names(source))


def uncalled(helpers: dict[str, str], modules: dict[str, str],
             definitions=functions) -> list[str]:
    """``module.name`` for each of the ``definitions`` of the ``helpers``
    sources that no source in ``modules`` uses outside its own definition."""
    out = []
    for helper, source in helpers.items():
        for name in definitions(source):
            if not any(name in (used_names(text, name) if module == helper
                                else used_elsewhere(text))
                       for module, text in modules.items()):
                out.append(f"{helper}.{name}")
    return out


def package() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_the_guard_sees_a_helper_without_a_caller():
    helper = "def used(x):\n    return x\n\n\ndef dead(x):\n    return dead(x)\n"
    modules = {"helper": helper, "user": "from .helper import used\nused(1)\n"}
    assert uncalled({"helper": helper}, modules) == ["helper.dead"]


def test_the_guard_sees_a_private_class_or_function_without_a_caller():
    helper = ("class _Used:\n    pass\n\n\nclass _Dead:\n    def f(self):\n        return _Dead()\n"
              "\n\ndef _dead():\n    return _Used()\n\n\ndef public():\n    pass\n")
    modules = {"helper": helper}
    assert uncalled(modules, modules, private_definitions) == ["helper._Dead", "helper._dead"]


@pytest.mark.parametrize("helper", HELPERS)
def test_every_helper_has_a_caller_in_the_package(helper):
    modules = package()
    dead = uncalled({helper: modules[helper]}, modules)
    assert [name for name in dead if name.split(".")[1] not in EXEMPT] == []


def test_each_exemption_is_a_helper_without_a_caller():
    modules = package()
    dead = uncalled({helper: modules[helper] for helper in HELPERS}, modules)
    assert sorted(name.split(".")[1] for name in dead) == sorted(EXEMPT)


def test_every_private_function_and_class_has_a_caller_in_the_package():
    modules = package()
    assert uncalled(modules, modules, private_definitions) == []


def from_entries_calls(modules: dict[str, str]) -> list[str]:
    """``module`` for each call of a function or method named ``from_entries``
    in the ``modules`` sources other than ``fixtures``."""
    return [module for module, source in modules.items() if module != "fixtures"
            for node in ast.walk(parsed(source))
            if isinstance(node, ast.Call) and "from_entries" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_the_guard_sees_a_call_of_from_entries():
    modules = {
        "algebras": "class Superalgebra:\n    def from_entries(space, entries):\n"
                    "        return entries\n",
        "fixtures": "A = Superalgebra.from_entries(space, {})\n",
        "graded": "t = Tensor2._from_entries(space, {})\n",
        "ops": "def build(s):\n    return Superalgebra.from_entries(s, {})\n",
        "parse": "from .algebras import from_entries\nA = from_entries(s, {})\n",
    }
    assert from_entries_calls(modules) == ["ops", "parse"]


def test_only_fixtures_build_an_algebra_from_triples():
    assert from_entries_calls(package()) == []


def superalgebra_calls(modules: dict[str, str]) -> list[str]:
    """``module:line`` for each call of a name or attribute ``Superalgebra``
    in the ``modules`` sources, outside the method ``from_entries`` of the
    class ``Superalgebra``."""
    out = []
    for module, source in modules.items():
        tree = parsed(source)
        exempt = {id(node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "Superalgebra"
                  for method in cls.body
                  if isinstance(method, ast.FunctionDef) and method.name == "from_entries"
                  for node in ast.walk(method)}
        out += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and id(node) not in exempt and "Superalgebra" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    return out


def test_the_guard_sees_a_call_of_the_validating_constructor():
    modules = {
        "algebras": "class Superalgebra:\n    def from_entries(space, entries):\n"
                    "        return Superalgebra(space, entries)\n\n"
                    "    def _from_rows(cls, space, rows):\n        return object.__new__(cls)\n",
        "ops": "def build(s, rows):\n    return Superalgebra(s, rows)\n\n\n"
               "def trusted(s, rows):\n    return Superalgebra._from_rows(s, rows)\n",
        "parse": "from . import algebras\nA = algebras.Superalgebra(s, {})\n",
        "other": "class Other:\n    def from_entries(s):\n        return Superalgebra(s, {})\n",
    }
    assert superalgebra_calls(modules) == ["ops:2", "parse:2", "other:3"]


def test_only_from_entries_calls_the_validating_constructor():
    assert superalgebra_calls(package()) == []
