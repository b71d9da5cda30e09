"""Every public value type is an immutable value.

A value equals, and hashes like, a twin built independently with its
entries inserted in another order; its pickle round trip, ``copy.copy``
and ``copy.deepcopy`` give an equal value, so it can be sent to another
process.  Every stored mapping refuses every mutator."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from supermalcev import (
    BilinearForm,
    GradedLinearMap,
    SuperSpace,
    Superalgebra,
    Tensor2,
    Tensor3,
    adjoint_representation,
    canonical_r,
    check_malcev,
    classify_form,
    fixtures,
    induced_structure_on_image,
    regular_bimodule,
)
from supermalcev._kernel import EMPTY
from supermalcev.graded import vector_from_sparse
from supermalcev.serialize import AlgebraDocument, parse, serialize


def ordered(mapping, reverse):
    """A plain copy of a nested mapping, every level inserted in reverse
    order if ``reverse``."""
    items = list(mapping.items())[::-1 if reverse else 1]
    return {k: ordered(v, reverse) if isinstance(v, dict) else v for k, v in items}


def algebra(reverse, build=fixtures.pre_malcev_1_1):
    A = build()
    return Superalgebra(A.space, ordered(A.products, reverse))


def space(reverse):
    return SuperSpace(1, 1, ["a", "b"] if reverse else ("a", "b"))


def vector(reverse):
    return vector_from_sparse(SuperSpace(2, 1), ordered({0: Fraction(1, 2), 2: Fraction(-3)},
                                                        reverse))


def linear_map(reverse):
    V = SuperSpace(2, 1)
    if reverse:
        return GradedLinearMap._from_columns(V, V, [
            {2: Fraction(2)}, {}, ordered({0: Fraction(1, 3), 1: Fraction(-1)}, True)], 1)
    return GradedLinearMap(V, V, ((0, 0, Fraction(1, 3)), (0, 0, -1), (2, 0, 0)), 1)


def tensor2(reverse):
    V = SuperSpace(1, 1)
    if reverse:
        return Tensor2._from_entries(V, {(1, 1): Fraction(1, 2), (0, 0): Fraction(1)})
    return Tensor2(V, ((1, 0), (0, Fraction(1, 2))))


def tensor3(reverse):
    return Tensor3(SuperSpace(1, 1), ordered({(0, 1, 1): 1, (1, 0, 1): Fraction(-1, 2),
                                              (1, 1, 0): 0}, reverse))


def pre_alternative():
    return Superalgebra.from_entries(SuperSpace(1, 1), {
        "prec": {(0, 0, 0): 1, (1, 1, 0): 2}, "succ": {(0, 1, 1): 1, (1, 0, 1): -1}})


def form(reverse):
    return BilinearForm(SuperSpace(1, 1), [[2, 0], [0, 1]] if reverse else ((2, 0), (0, 1)))


def sl2(reverse):
    return algebra(reverse, fixtures.sl2)


def document(reverse):
    A = sl2(reverse)
    doc = AlgebraDocument(A, representation=adjoint_representation(A),
                          linear_map=fixtures.rb_sl2_nilpotent(), linear_map_domain="algebra",
                          tensor2=Tensor2(A.space, ((0, 1, 0), (-1, 0, 0), (0, 0, 0))),
                          bilinear_form=BilinearForm(A.space, ((0, 0, 1), (0, 2, 0), (1, 0, 0))))
    return parse(serialize(doc)) if reverse else doc


VALUES = {
    "SuperSpace": space,
    "GradedVector": vector,
    "GradedLinearMap": linear_map,
    "Tensor2": tensor2,
    "Tensor3": tensor3,
    "Superalgebra mul": algebra,
    "Superalgebra prec/succ": lambda reverse: algebra(reverse, pre_alternative),
    "Representation": lambda reverse: adjoint_representation(algebra(reverse)),
    "Bimodule": lambda reverse: regular_bimodule(algebra(reverse)),
    "ViolationReport": lambda reverse: check_malcev(algebra(
        reverse, lambda: fixtures.random_product(SuperSpace(2, 1), 0))),
    "BilinearForm": form,
    "FormFlags": lambda reverse: classify_form(form(reverse), algebra(reverse)),
    "MybeCandidate": lambda reverse: canonical_r(algebra(reverse)),
    "ImageStructure": lambda reverse: induced_structure_on_image(
        fixtures.rb_sl2_nilpotent(), adjoint_representation(sl2(reverse))),
    "AlgebraDocument": document,
}


@pytest.mark.parametrize("build", VALUES.values(), ids=VALUES.keys())
def test_a_value_equals_hashes_like_and_survives_a_copy_of_itself(build):
    value, twin = build(False), build(True)
    assert twin is not value and twin == value and value == twin
    assert hash(twin) == hash(value)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)


MUTATORS = {
    "[]=": lambda m: operator.setitem(m, 0, 1),
    "del": lambda m: operator.delitem(m, next(iter(m), 0)),
    "update": lambda m: m.update({0: 1}),
    "|=": lambda m: operator.ior(m, {0: 1}),
    "setdefault": lambda m: m.setdefault(0, 1),
    "pop": lambda m: m.pop(next(iter(m), 0), None),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
    "__init__": lambda m: m.__init__({0: 1}),
}


def stored_mappings():
    A = fixtures.pre_malcev_1_1()
    T = fixtures.rb_sl2_nilpotent()
    return {
        "products": A.products,
        "rows": A.rows(),
        "row": next(iter(A.rows().values())),
        "column": T.columns[2],
        "GradedVector entries": vector(False)._entries,
        "Tensor2 entries": tensor2(False)._entries,
        "BilinearForm entries": form(False)._entries,
        "Tensor3.coeffs": tensor3(False).coeffs,
        "EMPTY": EMPTY,
    }


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
@pytest.mark.parametrize("name", stored_mappings().keys())
def test_every_stored_mapping_refuses_every_mutator(name, mutate):
    mapping = stored_mappings()[name]
    before = dict(mapping)
    assert before or mapping is EMPTY
    with pytest.raises(TypeError):
        mutate(mapping)
    assert mapping == before
