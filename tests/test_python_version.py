"""Every source file runs on the oldest Python that ``pyproject.toml``
declares (``requires-python = ">=3.10"``).

Two guards: every file parses with the 3.10 grammar (``except*`` groups are
3.11), and no file uses a standard-library name added after 3.10 (listed in
``NEWER``), read off the syntax tree: an imported module, a name imported
from a module, an attribute of an imported module, a builtin, or a method
of a standard-library type (``NEWER_METHODS``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "perfbench", "fixtures")
SOURCES = sorted(p for folder in FOLDERS for p in (ROOT / folder).rglob("*.py"))

# module -> the names it gained after 3.10, with the version that added them
NEWER = {
    "asyncio": {"TaskGroup": "3.11", "timeout": "3.11", "timeout_at": "3.11",
                "Runner": "3.11", "Barrier": "3.11"},
    "contextlib": {"chdir": "3.11"},
    "datetime": {"UTC": "3.11"},
    "enum": {"StrEnum": "3.11", "ReprEnum": "3.11", "EnumCheck": "3.11", "verify": "3.11",
             "member": "3.11", "nonmember": "3.11", "global_enum": "3.11",
             "FlagBoundary": "3.11", "property": "3.11"},
    "hashlib": {"file_digest": "3.11"},
    "inspect": {"getmembers_static": "3.11", "markcoroutinefunction": "3.12"},
    "itertools": {"batched": "3.12"},
    "logging": {"getLevelNamesMapping": "3.11", "getHandlerByName": "3.12",
                "getHandlerNames": "3.12"},
    "math": {"cbrt": "3.11", "exp2": "3.11", "sumprod": "3.12", "fma": "3.13"},
    "operator": {"call": "3.11"},
    "re": {"NOFLAG": "3.11", "PatternError": "3.13"},
    "statistics": {"kde": "3.13", "kde_random": "3.13"},
    "sys": {"exception": "3.11", "monitoring": "3.12", "activate_stack_trampoline": "3.12",
            "last_exc": "3.12"},
    "typing": {"Self": "3.11", "LiteralString": "3.11", "Never": "3.11",
               "assert_never": "3.11", "assert_type": "3.11", "reveal_type": "3.11",
               "dataclass_transform": "3.11", "Required": "3.11", "NotRequired": "3.11",
               "TypeVarTuple": "3.11", "Unpack": "3.11", "get_overloads": "3.11",
               "clear_overloads": "3.11", "override": "3.12", "TypeAliasType": "3.12",
               "ReadOnly": "3.13", "TypeIs": "3.13", "NoDefault": "3.13"},
}
NEWER_MODULES = {"tomllib": "3.11"}
NEWER_BUILTINS = {"ExceptionGroup": "3.11", "BaseExceptionGroup": "3.11",
                  "PythonFinalizationError": "3.13"}
# method -> the version that added it to a standard-library type.  The
# syntax tree does not know an object's type, so every attribute of the
# name is flagged: float.is_integer is older, but int.is_integer and
# Fraction.is_integer are 3.12.
NEWER_METHODS = {"is_integer": "3.12"}


def newer_names(source: str) -> list[str]:
    """The standard-library names added after 3.10 that ``source`` uses, as
    ``"module.name (3.x)"``."""
    tree = ast.parse(source)
    found, aliases = [], {}  # aliases: local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_MODULES:
                    found.append(f"{alias.name} ({NEWER_MODULES[alias.name]})")
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module in NEWER_MODULES:
                found.append(f"{node.module} ({NEWER_MODULES[node.module]})")
            for alias in node.names:
                added = NEWER.get(node.module, {}).get(alias.name)
                if added:
                    found.append(f"{node.module}.{alias.name} ({added})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NEWER_METHODS:
            found.append(f".{node.attr} ({NEWER_METHODS[node.attr]})")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            module = aliases[node.value.id]
            added = NEWER.get(module, {}).get(node.attr)
            if added:
                found.append(f"{module}.{node.attr} ({added})")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(f"{node.id} ({NEWER_BUILTINS[node.id]})")
    return found


def test_requires_python_is_3_10():
    assert len(SOURCES) >= 39
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_no_source_uses_a_standard_library_name_added_after_3_10():
    uses = {str(path.relative_to(ROOT)): newer_names(path.read_text(encoding="utf-8"))
            for path in SOURCES}
    assert {path: names for path, names in uses.items() if names} == {}


@pytest.mark.parametrize("source, expected", [
    ("import itertools\nitertools.batched(xs, 2)", ["itertools.batched (3.12)"]),
    ("import math as m\nm.sumprod(a, b)", ["math.sumprod (3.12)"]),
    ("from math import cbrt", ["math.cbrt (3.11)"]),
    ("from typing import Self", ["typing.Self (3.11)"]),
    ("import enum\nclass E(enum.StrEnum): pass", ["enum.StrEnum (3.11)"]),
    ("import tomllib", ["tomllib (3.11)"]),
    ("from tomllib import loads", ["tomllib (3.11)"]),
    ("import datetime\ndatetime.UTC", ["datetime.UTC (3.11)"]),
    ("raise ExceptionGroup('x', [])", ["ExceptionGroup (3.11)"]),
    # names that 3.10 has, and newer names that are not the module's
    ("import itertools, math\nitertools.pairwise(xs)\nmath.lcm(2, 3)", []),
    ("import datetime\ndatetime.timezone.utc\nx.batched", []),
    ("from .math import cbrt", []),
    # methods: any attribute of the name, and not a plain name
    ("Fraction(3, 2).is_integer()", [".is_integer (3.12)"]),
    ("c.numerator.is_integer()", [".is_integer (3.12)"]),
    ("c.denominator == 1\nis_integer(c)", []),
])
def test_newer_names_are_found(source, expected):
    assert newer_names(source) == expected
