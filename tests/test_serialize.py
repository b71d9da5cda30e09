"""Round-trip and error-reporting behavior of the document format."""

import json
import pickle
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from supermalcev import (
    SuperSpace,
    Superalgebra,
    Tensor2,
    adjoint_representation,
    regular_bimodule,
)
from supermalcev import fixtures
from supermalcev.operators import BilinearForm
from supermalcev.serialize import AlgebraDocument, ParseError, parse, serialize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sample_documents():
    sl2 = fixtures.sl2()
    zorn = fixtures.zorn_split_octonions()
    heis = fixtures.heisenberg_1_1()
    yield AlgebraDocument(sl2)
    yield AlgebraDocument(heis)
    yield AlgebraDocument(fixtures.split_octonions())
    yield AlgebraDocument(sl2, representation=adjoint_representation(sl2))
    yield AlgebraDocument(zorn, bimodule=regular_bimodule(zorn))
    yield AlgebraDocument(sl2, linear_map=fixtures.rb_sl2_nilpotent(),
                          linear_map_domain="algebra")
    yield AlgebraDocument(heis, tensor2=Tensor2(
        heis.space, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(3))), 0))
    yield AlgebraDocument(sl2, bilinear_form=BilinearForm(
        sl2.space, ((0, 1, 0), (-1, 0, 0), (0, 0, 2))))


def test_round_trip_identity_on_canonical_form():
    for doc in sample_documents():
        text = serialize(doc)
        parsed = parse(text)
        assert serialize(parsed) == text
        assert parsed.algebra == doc.algebra
        if doc.tensor2 is not None:
            assert parsed.tensor2 == doc.tensor2


def test_serialize_parse_serialize_idempotent_on_fixture_files():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, path.name


def test_zero_algebra_round_trip():
    doc = AlgebraDocument(fixtures.zero_algebra(1, 0))
    text = serialize(doc)
    assert parse(text).algebra.space.dim == 1
    assert serialize(parse(text)) == text


def test_sl2_fixture_file_entry_count():
    data = json.loads((FIXTURES / "sl2.json").read_text())
    assert data["even_dim"] == 3 and data["odd_dim"] == 0
    assert len(data["products"]["mul"]) == 6


def test_scalars_use_reduced_fraction_strings():
    heis = fixtures.heisenberg_1_1()
    doc = AlgebraDocument(heis, tensor2=Tensor2(
        heis.space, ((Fraction(6, 4), Fraction(0)), (Fraction(0), Fraction(0))), 0))
    text = serialize(doc)
    assert '"3/2"' in text
    assert parse(text).tensor2.coeffs[0][0] == Fraction(3, 2)


def _base(even=1, odd=1, products=None):
    return {
        "format": "superalg/1",
        "even_dim": even,
        "odd_dim": odd,
        "basis_labels": ["e1", "f1"][: even + odd],
        "products": {"mul": products or []},
    }


def test_parity_violation_names_the_triple():
    doc = _base(products=[[0, 0, 1, "1"]])  # even*even -> odd
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert "parity violation" in str(exc.value)
    assert "(0, 0, 1)" in str(exc.value)


def test_duplicate_entry_rejected():
    # a repeated triple is refused whichever of its copies is zero
    for products in ([[0, 0, 0, "1"], [0, 0, 0, "2"]], [[0, 0, 0, "5"], [0, 0, 0, "0"]],
                     [[0, 0, 0, "0"], [0, 0, 0, "5"]]):
        doc = _base(even=1, odd=0, products=products)
        with pytest.raises(ParseError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == "products.mul[1]: duplicate entry (0, 0, 0)"


@pytest.mark.parametrize("products, rows", [
    # a zero alone in its row, of the right parity and of the wrong one
    ({"mul": [[0, 0, 0, "0"]]}, {"mul": {}}),
    ({"mul": [[0, 0, 2, "0"], [0, 2, 2, "1"]]}, {"mul": {(0, 2): {2: 1}}}),
    # a zero beside a nonzero entry of its row, read before it and after it
    ({"mul": [[0, 0, 0, "0"], [0, 0, 1, "3"], [1, 1, 0, "1/2"], [1, 1, 1, "0"],
              [1, 2, 2, "-2"]]},
     {"mul": {(0, 0): {1: 3}, (1, 1): {0: Fraction(1, 2)}, (1, 2): {2: -2}}}),
    # a prec list that is empty or all zero keeps its (empty) product
    ({"prec": [], "succ": [[0, 0, 0, "1"]]}, {"prec": {}, "succ": {(0, 0): {0: 1}}}),
    ({"prec": [[0, 0, 0, "0"], [2, 2, 1, "0"]], "succ": [[2, 2, 0, "7"]]},
     {"prec": {}, "succ": {(2, 2): {0: 7}}}),
])
def test_zero_entries_are_read_and_not_stored(products, rows):
    doc = {"format": "superalg/1", "even_dim": 2, "odd_dim": 1, "products": products}
    algebra = parse(json.dumps(doc)).algebra
    assert algebra.product_names() == tuple(sorted(products))
    assert {name: algebra.rows(name) for name in algebra.product_names()} == rows
    assert all(row and all(type(c) is Fraction and c for c in row.values())
               for r in algebra.products.values() for row in r.values())
    # the validating constructor, given every entry as written, zeros too
    written = {name: {} for name in products}
    for name, triples in products.items():
        for i, j, k, c in triples:
            written[name].setdefault((i, j), {})[k] = Fraction(c)
    expected = Superalgebra(algebra.space, written)
    assert algebra == expected and hash(algebra) == hash(expected)
    assert repr(algebra) == repr(expected)
    assert pickle.dumps(algebra) == pickle.dumps(expected)
    text = serialize(AlgebraDocument(algebra))
    assert parse(text).algebra == algebra and serialize(parse(text)) == text


def test_index_out_of_range_rejected():
    doc = _base(products=[[0, 5, 0, "1"]])
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert "products.mul[0].j" in str(exc.value)


def test_bad_scalar_rejected():
    doc = _base(products=[[0, 0, 0, "1/0"]])
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


@pytest.mark.parametrize("scalar", ["1e400", "2E3"])
def test_exponent_scalar_rejected(scalar):
    doc = _base(products=[[0, 0, 0, scalar]])
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert "products.mul[0].scalar" in str(exc.value)
    assert "exponent" in str(exc.value)


def test_parse_memory_is_bounded_by_the_input():
    # 150^3 = 3.4M structure constants are declared, one is given
    doc = {"format": "superalg/1", "even_dim": 150, "odd_dim": 0,
           "products": {"mul": [[0, 0, 0, "1"]]}}
    tracemalloc.start()
    try:
        algebra = parse(json.dumps(doc)).algebra
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert algebra.space.dim == 150
    assert peak < 2 * 1024 * 1024


def test_parse_memory_of_a_sparse_action_at_the_cap_follows_its_distinct_scalars():
    # a 32|32 algebra with two constants and its adjoint action: 262144
    # matrix entries and 3 distinct scalars.  One Fraction per entry peaked
    # at 16.5 MB and one per distinct scalar of a matrix at 4.5 MB, with
    # every map stored dense.  Maps that store only their nonzero entries
    # peak at 2.31 MB, of which the JSON decode alone is 2.26 MB; the bound
    # leaves 0.44 MB of margin.
    A = Superalgebra.from_entries(SuperSpace(32, 32), {"mul": {(0, 1, 2): 1, (1, 0, 2): -1}})
    text = serialize(AlgebraDocument(A, representation=adjoint_representation(A)))
    tracemalloc.start()
    try:
        doc = parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.representation.action == adjoint_representation(A).action
    assert peak < 2.75 * 1024 * 1024


@pytest.mark.parametrize("entry, message", [
    (True, "expected a scalar string, got a boolean"),
    ([2], "expected a scalar string, got list"),
    ({}, "expected a scalar string, got dict"),
    (None, "expected a scalar string, got NoneType"),
    (1.5, "expected a scalar string, got float"),
])
def test_a_bad_matrix_entry_after_a_valid_1_keeps_its_message(entry, message):
    # a matrix parses each distinct scalar once; JSON true == 1, and a list
    # or an object cannot be a dict key, so none of them may meet the cache
    doc = _base()
    doc["bilinear_form"] = {"matrix": [[1, entry], ["0", "0"]]}
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == f"bilinear_form.matrix[0][1]: {message}"


@pytest.mark.parametrize("field, path", [
    ("top level.even_dim", ("even_dim",)),
    ("top level.odd_dim", ("odd_dim",)),
    ("representation.even_dim", ("representation", "even_dim")),
    ("products.mul[0].i", ("products", "mul", 0, 0)),
    ("products.mul[0].j", ("products", "mul", 0, 1)),
    ("products.mul[0].k", ("products", "mul", 0, 2)),
    ("linear_map.parity", ("linear_map", "parity")),
    ("tensor2.parity", ("tensor2", "parity")),
])
def test_boolean_where_an_integer_is_wanted_is_rejected(field, path):
    # true and false decode to bool, a subclass of int; taken as 1 and 0,
    # they used to be written back as booleans in the "canonical" output
    doc = _base(products=[[0, 1, 1, "1"], [1, 1, 0, "1"]])
    doc["representation"] = {"even_dim": 1, "odd_dim": 0, "matrices": [[["0"]], [["0"]]]}
    doc["linear_map"] = {"domain": "algebra", "parity": 0, "matrix": [["1", "0"], ["0", "1"]]}
    doc["tensor2"] = {"parity": 0, "coeffs": [["0", "0"], ["0", "1"]]}
    parse(json.dumps(doc))
    *keys, last = path
    block = doc
    for key in keys:
        block = block[key]
    block[last] = bool(block[last])
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value).startswith(field + ":")


def test_bad_format_and_syntax():
    with pytest.raises(ParseError):
        parse("{not json")
    with pytest.raises(ParseError) as exc:
        parse(json.dumps({"format": "other/9"}))
    assert "format" in str(exc.value)


def test_every_decoding_failure_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("[" * 100_000 + "]" * 100_000)
    # over the interpreter's digit limit; were it decoded, odd_dim is missing
    with pytest.raises(ParseError):
        parse('{"format": "superalg/1", "even_dim": 1' + "0" * 4999 + "}")


def test_label_count_mismatch():
    doc = _base()
    doc["basis_labels"] = ["only-one"]
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_unknown_product_names_rejected():
    doc = _base()
    doc["products"] = {"star": []}
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert "products" in str(exc.value)


@pytest.mark.parametrize("products, message", [
    ({}, "products: expected a nonempty object"),
    ({"prec": {}}, "products: expected either {'mul'} or {'prec', 'succ'}, got ['prec']"),
    ({"foo": {(0, 0): {0: 1}}},
     "products: expected either {'mul'} or {'prec', 'succ'}, got ['foo']"),
])
def test_serialize_refuses_the_product_sets_parse_refuses(products, message):
    with pytest.raises(ValueError) as exc:
        serialize(AlgebraDocument(Superalgebra(SuperSpace(1, 0), products)))
    assert str(exc.value) == message
    doc = _base(1, 0)
    doc["products"] = {name: [] for name in products}
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


def test_linear_map_module_requires_context():
    doc = _base()
    doc["linear_map"] = {"domain": "module", "parity": 0,
                         "matrix": [["0", "0"], ["0", "0"]]}
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert "module" in str(exc.value)


_ZERO_2X2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("edits, message", [
    ({"representation": []}, "representation: expected an object"),
    ({"bimodule": []}, "bimodule: expected an object"),
    ({"linear_map": []}, "linear_map: expected an object"),
    ({"tensor2": []}, "tensor2: expected an object"),
    ({"bilinear_form": []}, "bilinear_form: expected an object"),
    ({"linear_map": {"parity": 2, "matrix": _ZERO_2X2}}, "linear_map.parity: expected 0 or 1"),
    ({"tensor2": {"parity": 2, "coeffs": _ZERO_2X2}}, "tensor2.parity: expected 0 or 1"),
    ({"linear_map": {"domain": "both", "matrix": _ZERO_2X2}},
     "linear_map.domain: expected 'module' or 'algebra', got 'both'"),
    ({"linear_map": {"domain": "module", "matrix": _ZERO_2X2}},
     "linear_map: domain 'module' requires a representation or bimodule block"),
    ({"products": {"prec": [], "succ": []},
      "representation": {"even_dim": 1, "odd_dim": 0, "matrices": [[["0"]], [["0"]]]}},
     "representation: requires a 'mul' product"),
    ({"products": None}, "products: missing"),
    ({"bilinear_form": {"matrix": [["0", "1"], ["-1", "0"]]}},
     "bilinear_form.matrix: form entry (0, 1) = 1 violates parity 0"),
    ({"linear_map": {"matrix": [["0"], ["0", "0"]]}}, "linear_map.matrix[0]: expected 2 entries"),
    ({"basis_labels": "ef"}, "top level.basis_labels: expected a list of strings"),
    ({"products": []}, "products: expected a nonempty object"),
    ({"products": {"mul": {}}}, "products.mul: expected a list of triples"),
    ({"products": {"mul": [[0, 1, 1]]}}, "products.mul[0]: expected [i, j, k, scalar]"),
    ({"representation": {"even_dim": 1, "odd_dim": 0, "matrices": []}},
     "representation.matrices: expected one matrix per algebra basis element (2)"),
    ([], "top level: expected an object"),
])
def test_parse_error_messages_in_full(edits, message):
    doc = _base()
    if isinstance(edits, list):  # the whole document, not edits of the base one
        doc, edits = edits, {}
    for key, value in edits.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


def test_non_utf8_rejected():
    with pytest.raises(ParseError):
        parse(b"\xff\xfe{}")


def test_committed_fixtures_match_regeneration():
    # the files under fixtures/ are the serializer's own canonical output
    from supermalcev.serialize import AlgebraDocument as AD

    sl2 = fixtures.sl2()
    assert (FIXTURES / "sl2.json").read_text(encoding="utf-8") == serialize(AD(sl2))
    assert (FIXTURES / "heisenberg11.json").read_text(encoding="utf-8") == serialize(
        AD(fixtures.heisenberg_1_1()))
    assert (FIXTURES / "sl2_adjoint.json").read_text(encoding="utf-8") == serialize(
        AD(sl2, representation=adjoint_representation(sl2)))
