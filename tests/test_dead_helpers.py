"""Every module-level function of ``_linalg`` and ``_kernel`` has a caller in
the package.

A helper that loses its last caller is deleted, not kept for later.  Read off
the syntax tree with ``ast``: a function has a caller when its name occurs,
as a name or as an attribute, in some module of ``src/supermalcev`` outside
its own definition.  ``EXEMPT`` names the helpers kept without a caller in
the package, each with the reader outside it that needs it."""

import ast
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


def functions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]


def used_names(source: str, defined: str | None = None) -> set[str]:
    """The names and attributes that occur in ``source``, leaving out the
    body of the module-level function ``defined``."""
    tree = ast.parse(source)
    nodes = [node for node in tree.body
             if not (isinstance(node, ast.FunctionDef) and node.name == defined)]
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def uncalled(helpers: dict[str, str], modules: dict[str, str]) -> list[str]:
    """``module.function`` for each function of the ``helpers`` sources that
    no source in ``modules`` uses outside its own definition."""
    out = []
    for helper, source in helpers.items():
        for name in functions(source):
            if not any(name in used_names(text, name if module == helper else None)
                       for module, text in modules.items()):
                out.append(f"{helper}.{name}")
    return out


def package() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_the_guard_sees_a_helper_without_a_caller():
    helper = "def used(x):\n    return x\n\n\ndef dead(x):\n    return dead(x)\n"
    modules = {"helper": helper, "user": "from .helper import used\nused(1)\n"}
    assert uncalled({"helper": helper}, modules) == ["helper.dead"]


@pytest.mark.parametrize("helper", HELPERS)
def test_every_helper_has_a_caller_in_the_package(helper):
    modules = package()
    dead = uncalled({helper: modules[helper]}, modules)
    assert [name for name in dead if name.split(".")[1] not in EXEMPT] == []


def test_each_exemption_is_a_helper_without_a_caller():
    modules = package()
    dead = uncalled({helper: modules[helper] for helper in HELPERS}, modules)
    assert sorted(name.split(".")[1] for name in dead) == sorted(EXEMPT)
