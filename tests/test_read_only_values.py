"""The package makes its values read-only in one way: ``_kernel.Frozen``.

No module of ``src/supermalcev`` mentions ``MappingProxyType``, and no
class there but ``Frozen`` defines ``__hash__`` or ``__eq__``, by a ``def``
or by an assignment: every value type takes the equality and hash that its
dataclass generates from its fields.  No class there annotates a field with
the dense ``Matrix`` type or a dense tuple of scalars, ``tuple[Fraction,
...]``, either: every value stores sparse entries, and a dense matrix or
coordinate tuple is rebuilt on each read.  Read off the source text and its
syntax tree with ``ast``."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supermalcev"
MODULES = sorted(PACKAGE.glob("*.py"))
READ_ONLY_MAPPING = "Frozen"
# the dense annotations: a matrix, or a tuple of any number of scalars
DENSE = re.compile(r"\bMatrix\b|\b[Tt]uple\[\s*Fraction\s*,\s*\.\.\.\s*\]")


def defined_names(node: ast.ClassDef) -> set[str]:
    """The names a class body binds by ``def`` or assignment."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def dense_fields(node: ast.ClassDef) -> list[tuple[ast.AnnAssign, str]]:
    """The fields of a class body whose annotation names a dense type, each
    with the dense type it names."""
    return [(stmt, found.group()) for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and (found := DENSE.search(ast.unparse(stmt.annotation)))]


def offences(source: str) -> list[str]:
    out = [f"line {n}: MappingProxyType" for n, line in enumerate(source.splitlines(), 1)
           if "MappingProxyType" in line]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            out += [f"line {stmt.lineno}: {node.name}.{ast.unparse(stmt.target)}: {dense}"
                    for stmt, dense in dense_fields(node)]
        if isinstance(node, ast.ClassDef) and node.name != READ_ONLY_MAPPING:
            out += [f"line {node.lineno}: {node.name}.{name}"
                    for name in sorted(defined_names(node) & {"__eq__", "__hash__"})]
    return out


def test_the_guard_sees_a_proxy_and_a_hand_written_hash_or_equality():
    source = ("from types import MappingProxyType\n\n\n"
              "class Frozen(dict):\n    def __hash__(self):\n        return 0\n\n\n"
              "class Value:\n    def __eq__(self, other):\n        return True\n\n"
              "    __hash__ = None\n")
    assert offences(source) == ["line 1: MappingProxyType", "line 9: Value.__eq__",
                                "line 9: Value.__hash__"]


def test_the_guard_sees_a_dense_matrix_field():
    source = ("class Form:\n    space: int\n    matrix: _linalg.Matrix\n\n\n"
              "class Map:\n    rows: 'Matrix | None' = None\n    n_matrix: int = 0\n"
              "    Matrix = tuple\n")
    assert offences(source) == ["line 3: Form.matrix: Matrix", "line 7: Map.rows: Matrix"]


def test_the_guard_sees_a_dense_tuple_of_scalars():
    source = ("class Vector:\n    space: int\n    coords: tuple[Fraction, ...]\n\n\n"
              "class Old:\n    coords: 'Tuple[Fraction,...] | None' = None\n"
              "    pair: tuple[Fraction, Fraction]\n    labels: tuple[str, ...] = ()\n")
    assert offences(source) == ["line 3: Vector.coords: tuple[Fraction, ...]",
                                "line 7: Old.coords: Tuple[Fraction,...]"]


def test_the_read_only_mapping_is_the_one_that_hashes():
    tree = ast.parse((PACKAGE / "_kernel.py").read_text(encoding="utf-8"))
    (frozen,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == READ_ONLY_MAPPING]
    assert "__hash__" in defined_names(frozen)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_proxy_and_no_hand_written_hash_or_equality(path):
    assert offences(path.read_text(encoding="utf-8")) == []
