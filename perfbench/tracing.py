"""Spans and exact counts recorded from outside the library.

A ``Recorder`` swaps wrappers in for library functions: every module
namespace of the ``supermalcev`` package that holds a function gets the
wrapper, and ``uninstall`` puts the originals back.  The library source is
never edited, and a pass run without a recorder runs the library untouched.

Two kinds of wrapper exist:

* span wrappers around the public functions a workload calls into, one per
  layer boundary.  Each call records a span (name, start, end, parent span,
  operation id) and, at the same boundary, the exact facts its result
  carries: tuples checked, violations and witnesses kept for checkers,
  candidates and hits for grid searches.
* call counters on the hot inner functions (``count_calls=True`` only).
  They add a Python call to every product evaluation, so they run in a
  separate counting pass and never in a timed one.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# layer (module) -> public functions that get a span
SPANNED = {
    "algebras": (
        "check_left_alternative", "check_right_alternative", "check_malcev",
        "check_pre_malcev", "check_pre_alternative", "commutator_superalgebra",
    ),
    "reps": (
        "check_malcev_representation", "check_alternative_bimodule",
        "semidirect_malcev", "coadjoint_representation", "dual_representation",
        "adjoint_representation", "regular_bimodule",
    ),
    "operators": (
        "search_rota_baxter", "search_o_operators_malcev",
        "search_o_operators_alternative", "check_o_operator_malcev",
        "check_o_operator_alternative", "check_rota_baxter", "check_symplectic",
        "pre_malcev_from_o_operator", "pre_malcev_from_rota_baxter",
        "pre_alternative_from_o_operator",
    ),
    "yangbaxter": (
        "mybe_lhs", "check_operator_form", "canonical_r", "r_from_o_operator",
        "symplectic_from_r",
    ),
    "serialize": ("parse", "serialize"),
}

# layers whose checkers' reports feed the <layer>.tuples / .violations facts
CHECKER_LAYERS = ("algebras", "reps")


def _namespaces():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "supermalcev" or name.startswith("supermalcev."))
    ]


class Recorder:
    """Spans and facts of one pass; ``count_calls`` adds the hot counters."""

    def __init__(self, count_calls: bool = False):
        self.count_calls = count_calls
        self.spans: list[list] = []  # [name, start, end, parent id, op id]
        self.facts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], facts: dict) -> None:
        """Merge the records of a child process under the current span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, sub_parent, _ in spans:
            self.spans.append([name, start, end,
                               parent if sub_parent is None else base + sub_parent,
                               self.op])
        self.facts.update(facts)

    # -- installing wrappers ---------------------------------------------

    def _swap(self, original, wrapper) -> None:
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, original))

    def install(self) -> None:
        import supermalcev.serialize  # noqa: F401  (its functions get spans too)
        from supermalcev import _linalg, algebras, graded

        for layer, names in SPANNED.items():
            module = sys.modules[f"supermalcev.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._swap(original, self._spanned(f"{layer}.{name}", layer, original))
        if self.count_calls:
            cls = algebras.Superalgebra
            self._undo.append((cls, "mul_sparse", cls.mul_sparse))
            cls.mul_sparse = self._counted("algebras.mul_sparse.calls", cls.mul_sparse)
            self._swap(_linalg.mat_mul, self._counted("linalg.mat_mul.calls", _linalg.mat_mul))
            self._swap(_linalg.solve, self._counted("linalg.solve.calls", _linalg.solve))
            self._swap(graded.vector_from_sparse, self._vector_counter(graded.vector_from_sparse))

    def uninstall(self) -> None:
        while self._undo:
            ns, key, original = self._undo.pop()
            setattr(ns, key, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, layer: str, fn):
        signature = inspect.signature(fn)
        search = name.startswith("operators.search_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if layer in CHECKER_LAYERS and hasattr(result, "violation_count"):
                self.facts[f"{layer}.tuples"] += result.checked_tuples
                self.facts[f"{layer}.violations"] += result.violation_count
                if layer == "algebras":
                    self.facts["algebras.witnesses_kept"] += len(result.witnesses)
            if name == "serialize.parse":
                self.facts["serialize.parse.bytes"] += len(args[0])
            elif name == "serialize.serialize":
                self.facts["serialize.serialize.bytes"] += len(result.encode())
            elif search:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["support"] is None:
                    raise ValueError(f"{name}: the benchmark passes an explicit support")
                grid = len(tuple(bound.arguments["values"])) ** len(bound.arguments["support"])
                self.facts["operators.candidates"] += grid
                self.facts["operators.hits"] += len(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        facts = self.facts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            facts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _vector_counter(self, fn):
        facts = self.facts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            facts["graded.vector_from_sparse.calls"] += 1
            if sys._getframe(1).f_globals.get("__name__") == "supermalcev.algebras":
                facts["algebras.witness_vectors"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "facts": dict(self.facts)}
