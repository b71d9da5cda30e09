"""The names the benchmark's tracer wraps still exist in the library.

``perfbench/tracing.py`` swaps wrappers in for library functions by name.
A rewrite that drops or renames one of them breaks the traced benchmark
runs, which tier-1 does not otherwise run, so these tests read the
tracer's table and its witness attribution from here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from supermalcev import SuperSpace, commutator_superalgebra, fixtures
from supermalcev import algebras
from rational_inputs import sparse_rational_product

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def spanned():
    """The tracer's ``SPANNED`` table, read from its source without importing it."""
    module = ast.parse(TRACER.read_text(encoding="utf-8"))
    value = next(node.value for node in module.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets))
    return ast.literal_eval(value)


def test_every_spanned_name_resolves_in_its_module():
    table = spanned()
    assert "algebras" in table and len(table) >= 5
    for layer, names in table.items():
        module = importlib.import_module(f"supermalcev.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"supermalcev.{layer}.{name}"


def counted():
    """The library names the tracer's counting pass swaps, read from the
    ``if self.count_calls:`` block of ``Recorder.install``: every attribute
    taken of a ``supermalcev`` module, or of a local name bound to one, as
    (module, attribute path)."""
    module = ast.parse(TRACER.read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(module)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    paths = {alias.asname or alias.name: (alias.name, ()) for node in ast.walk(install)
             if isinstance(node, ast.ImportFrom) and node.module == "supermalcev"
             for alias in node.names}
    block = next(node for node in install.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "self.count_calls")

    def path(node):
        if isinstance(node, ast.Name):
            return paths.get(node.id)
        if isinstance(node, ast.Attribute) and (base := path(node.value)):
            return base[0], base[1] + (node.attr,)
        return None

    for stmt in block.body:  # local names such as cls = algebras.Superalgebra
        if isinstance(stmt, ast.Assign) and (bound := path(stmt.value)):
            paths.update({t.id: bound for t in stmt.targets if isinstance(t, ast.Name)})
    return {found for node in ast.walk(block) if (found := path(node)) and found[1]}


def test_every_counted_name_resolves_in_its_module():
    names = counted()
    assert len({m for m, _ in names}) >= 3, names
    for layer, attrs in names:
        obj = importlib.import_module(f"supermalcev.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert callable(obj), f"supermalcev.{layer}.{'.'.join(attrs)}"


@pytest.mark.parametrize("limit", [1, 3, 10 ** 6])
def test_one_witness_vector_per_witness_kept(monkeypatch, limit):
    # the tracer counts algebras.witness_vectors as the calls of
    # vector_from_sparse made from the algebras module
    calls = []
    original = algebras.vector_from_sparse
    monkeypatch.setattr(algebras, "vector_from_sparse",
                        lambda *args: calls.append(args) or original(*args))
    A = sparse_rational_product(SuperSpace(2, 2), 9, 0.5)
    P = sparse_rational_product(SuperSpace(2, 2), 9, 0.5, two_products=True)
    cases = [(check, A) for check in (
        algebras.check_left_alternative, algebras.check_right_alternative,
        algebras.check_malcev, algebras.check_pre_malcev)]
    cases += [(algebras.check_malcev, commutator_superalgebra(A)),
              (algebras.check_pre_alternative, P),
              (algebras.check_malcev, fixtures.split_octonions())]
    kept = 0
    for check, B in cases:
        before = len(calls)
        report = check(B, witness_limit=limit)
        assert report.violation_count > 0
        assert len(calls) - before == len(report.witnesses) == min(limit, report.violation_count)
        kept += len(report.witnesses)
    assert kept == len(calls)
