"""No module of the package, and no test, demo or fixture script, imports a
name it never uses.

Read off the syntax tree with ``ast``: every name a module binds by
``import`` or ``from ... import`` must occur as a name somewhere in the
module.  The package's ``__init__.py`` re-exports its imports, and
``from __future__`` binds nothing, so both are left out.  So is
``perfbench/``, the benchmark, whose tracer imports a module for its side
effect."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supermalcev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for folder in ("tests", "demos", "fixtures")
                 for p in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport json, os.path as osp\n"
              "from fractions import Fraction\nprint(json.dumps(1))\n")
    assert unused_imports(source) == ["line 2: osp", "line 3: Fraction"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: (
    p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix()))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
