"""Bit-exact JSON serialization of the domain objects.

One document holds an algebra (dims, labels, sparse product triples) plus
optional blocks: a representation, a bimodule, a linear map, a 2-tensor,
and a bilinear form.  Output is canonical: fixed key order, product triples
sorted lexicographically, scalars in reduced "p/q" form; parsing followed
by serializing is the identity on canonical files.  Parsing reads the
products straight into the stored rows and the matrices into sparse
entries.  It checks each product entry once, and keeps only the nonzero
ones, so the algebra is built from its rows with no second check
(``Superalgebra._from_rows``).

This module is the only reader of a document's fields.  ``parse`` takes
any dimension unless given a cap, as the CLI gives it: then it refuses an
algebra, representation or bimodule over the cap when it reaches that
block, before the space is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .graded import GradedLinearMap, ParityViolation, SuperSpace, Tensor2, _sparse_columns
from .algebras import Superalgebra
from .operators import BilinearForm
from .reps import Bimodule, Representation

FORMAT = "superalg/1"


class ParseError(ValueError):
    """Malformed document; the message names the offending field."""


@dataclass(frozen=True)
class AlgebraDocument:
    algebra: Superalgebra
    representation: Representation | None = None
    bimodule: Bimodule | None = None
    linear_map: GradedLinearMap | None = None
    linear_map_domain: str | None = None  # "module" or "algebra"
    tensor2: Tensor2 | None = None
    bilinear_form: BilinearForm | None = None


def _parse_scalar(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a scalar string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # an exponent would let a few bytes ask for a huge integer
        if "e" in value.lower():
            raise ParseError(f"{where}: bad scalar {value!r} (exponents are not accepted)")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad scalar {value!r} ({exc})") from None
    raise ParseError(f"{where}: expected a scalar string, got {type(value).__name__}")


def _matrix_to_json(matrix) -> list[list[str]]:
    return [[str(c) for c in row] for row in matrix]


def _parse_entries(value: Any, nrows: int, ncols: int,
                   where: str) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of the matrix at ``where``, keyed (row, column);
    each distinct scalar is parsed once.  Only ``str`` and ``int`` entries
    are cached, keyed with their type because JSON true == 1; any other
    entry is refused where it is."""
    if not isinstance(value, list) or len(value) != nrows:
        raise ParseError(f"{where}: expected {nrows} rows")
    entries, seen = {}, {}
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{where}[{i}]: expected {ncols} entries")
        for j, c in enumerate(row):
            key = type(c), c
            if key[0] not in (str, int) or key not in seen:
                x = _parse_scalar(c, f"{where}[{i}][{j}]")
                seen[key] = x if x else None
            x = seen[key]
            if x is not None:
                entries[i, j] = x
    return entries


def _space_to_json(space: SuperSpace) -> dict:
    return {
        "even_dim": space.even_dim,
        "odd_dim": space.odd_dim,
        "basis_labels": list(space.labels),
    }


def _parse_space(obj: Mapping, where: str, what: str, cap: int | None) -> SuperSpace:
    """The space ``what`` declared at ``where``; over ``cap`` dimensions it is
    refused before its labels are read or made."""
    for key in ("even_dim", "odd_dim"):
        # JSON true and false decode to bool, a subclass of int
        if key not in obj or type(obj[key]) is not int or obj[key] < 0:
            raise ParseError(f"{where}.{key}: expected a nonnegative integer")
    dim = obj["even_dim"] + obj["odd_dim"]
    if cap is not None and dim > cap:
        raise ParseError(f"{what} dimension {dim} exceeds the cap of {cap}")
    labels = obj.get("basis_labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError(f"{where}.basis_labels: expected a list of strings")
    try:
        return SuperSpace(obj["even_dim"], obj["odd_dim"], tuple(labels))
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _products_to_json(algebra: Superalgebra) -> dict:
    return {
        name: [
            [i, j, k, str(c)]
            for (i, j), row in algebra.products[name].items()
            for k, c in row.items()
        ]
        for name in sorted(algebra.products)
    }


def _product_names(obj: Any) -> set[str]:
    """The product names of ``obj``, which a document holds only as
    {'mul'} or {'prec', 'succ'}; the one rule of ``parse`` and ``serialize``."""
    if not isinstance(obj, Mapping) or not obj:
        raise ParseError("products: expected a nonempty object")
    names = set(obj)
    if names != {"mul"} and names != {"prec", "succ"}:
        raise ParseError(
            "products: expected either {'mul'} or {'prec', 'succ'}, got "
            + repr(sorted(names))
        )
    return names


def _parse_products(obj: Any, space: SuperSpace) -> Superalgebra:
    names = _product_names(obj)
    n, par = space.dim, space.parities()
    products: dict[str, dict[tuple[int, int], dict[int, Fraction]]] = {}
    for name in sorted(names):
        triples = obj[name]
        if not isinstance(triples, list):
            raise ParseError(f"products.{name}: expected a list of triples")
        rows = products[name] = {}
        read: set[tuple[int, int, int]] = set()
        for idx, item in enumerate(triples):
            where = f"products.{name}[{idx}]"
            if not isinstance(item, list) or len(item) != 4:
                raise ParseError(f"{where}: expected [i, j, k, scalar]")
            i, j, k = item[0], item[1], item[2]
            for pos, v in (("i", i), ("j", j), ("k", k)):
                if type(v) is not int or not 0 <= v < n:
                    raise ParseError(f"{where}.{pos}: index out of range 0..{n - 1}")
            c = _parse_scalar(item[3], f"{where}.scalar")
            if (i, j, k) in read:
                raise ParseError(f"{where}: duplicate entry ({i}, {j}, {k})")
            read.add((i, j, k))
            if c:  # a zero is only read, so that its repeat is refused
                if par[k] != (par[i] + par[j]) % 2:
                    raise ParseError(
                        f"{where}: parity violation: entry ({i}, {j}, {k}) maps "
                        f"parities ({par[i]}, {par[j]}) to parity {par[k]}"
                    )
                rows.setdefault((i, j), {})[k] = c
    return Superalgebra._from_rows(space, products)


def _maps_to_json(maps) -> list:
    return [_matrix_to_json(m.matrix) for m in maps]


def _checked(where: str, build, *args):
    """``build(*args)``, with a parity violation reported at ``where``."""
    try:
        return build(*args)
    except ParityViolation as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_action(value: Any, algebra: Superalgebra, space: SuperSpace,
                  where: str) -> tuple[GradedLinearMap, ...]:
    if not isinstance(value, list) or len(value) != algebra.space.dim:
        raise ParseError(
            f"{where}: expected one matrix per algebra basis element "
            f"({algebra.space.dim})"
        )
    maps = []
    for i, mat in enumerate(value):
        entries = _parse_entries(mat, space.dim, space.dim, f"{where}[{i}]")
        maps.append(_checked(f"{where}[{i}]", GradedLinearMap._from_columns, space, space,
                             _sparse_columns(entries, space.dim), algebra.space.parity(i)))
    return tuple(maps)


def serialize(doc: AlgebraDocument) -> str:
    """The canonical document of ``doc``.  An algebra whose products are
    not {'mul'} or {'prec', 'succ'} is refused with the ``ParseError`` (a
    ``ValueError``) that ``parse`` would raise on the document."""
    algebra = doc.algebra
    _product_names(algebra.products)
    payload: dict[str, Any] = {"format": FORMAT}
    payload.update(_space_to_json(algebra.space))
    payload["products"] = _products_to_json(algebra)
    if doc.representation is not None:
        payload["representation"] = {
            **_space_to_json(doc.representation.space),
            "matrices": _maps_to_json(doc.representation.action),
        }
    if doc.bimodule is not None:
        payload["bimodule"] = {
            **_space_to_json(doc.bimodule.space),
            "left": _maps_to_json(doc.bimodule.left),
            "right": _maps_to_json(doc.bimodule.right),
        }
    if doc.linear_map is not None:
        payload["linear_map"] = {
            "domain": doc.linear_map_domain or "algebra",
            "parity": doc.linear_map.parity,
            "matrix": _matrix_to_json(doc.linear_map.matrix),
        }
    if doc.tensor2 is not None:
        payload["tensor2"] = {
            "parity": doc.tensor2.parity,
            "coeffs": _matrix_to_json(doc.tensor2.coeffs),
        }
    if doc.bilinear_form is not None:
        payload["bilinear_form"] = {
            "matrix": _matrix_to_json(doc.bilinear_form.matrix),
        }
    return _dumps_canonical(payload) + "\n"


def _dumps_canonical(value, indent: int = 0) -> str:
    """json.dumps with 2-space indent, except that lists of scalars stay on
    one line; key order is insertion order."""
    pad = " " * indent
    if isinstance(value, Mapping):
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dumps_canonical(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(not isinstance(x, (dict, list)) for x in value):
            return json.dumps(value)
        items = [f"{pad}  {_dumps_canonical(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)


def _loads(text: str | bytes) -> Any:
    """The JSON value of a document; every decoding failure is a ParseError."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error: {exc}") from None
    except ValueError as exc:  # an integer literal over the interpreter's digit limit
        raise ParseError(f"bad number: {exc}") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None


def _block(obj: Mapping, name: str) -> Mapping | None:
    """The optional block ``name``: None if absent, else it must be an object."""
    if name not in obj:
        return None
    if not isinstance(obj[name], Mapping):
        raise ParseError(f"{name}: expected an object")
    return obj[name]


def _parse_parity(block: Mapping, where: str) -> int:
    parity = block.get("parity", 0)
    if type(parity) is not int or parity not in (0, 1):
        raise ParseError(f"{where}.parity: expected 0 or 1")
    return parity


def parse(text: str | bytes, cap: int | None = None) -> AlgebraDocument:
    """The document in ``text``; every malformed input is a ParseError.  A
    space of more than ``cap`` dimensions is refused when the parser reaches
    its block, before the space is built."""
    obj = _loads(text)
    if not isinstance(obj, Mapping):
        raise ParseError("top level: expected an object")
    if obj.get("format") != FORMAT:
        raise ParseError(f"format: expected {FORMAT!r}, got {obj.get('format')!r}")
    space = _parse_space(obj, "top level", "algebra", cap)
    if "products" not in obj:
        raise ParseError("products: missing")
    algebra = _parse_products(obj["products"], space)
    fields: dict[str, Any] = {"algebra": algebra}

    if (block := _block(obj, "representation")) is not None:
        vspace = _parse_space(block, "representation", "representation", cap)
        if "mul" not in algebra.products:
            raise ParseError("representation: requires a 'mul' product")
        fields["representation"] = Representation(algebra, vspace, _parse_action(
            block.get("matrices"), algebra, vspace, "representation.matrices"))

    if (block := _block(obj, "bimodule")) is not None:
        vspace = _parse_space(block, "bimodule", "bimodule", cap)
        fields["bimodule"] = Bimodule(
            algebra, vspace,
            _parse_action(block.get("left"), algebra, vspace, "bimodule.left"),
            _parse_action(block.get("right"), algebra, vspace, "bimodule.right"))

    if (block := _block(obj, "linear_map")) is not None:
        domain = block.get("domain", "algebra")
        if domain not in ("module", "algebra"):
            raise ParseError(f"linear_map.domain: expected 'module' or 'algebra', got {domain!r}")
        parity = _parse_parity(block, "linear_map")
        source = space
        if domain == "module":
            module = fields.get("representation") or fields.get("bimodule")
            if module is None:
                raise ParseError(
                    "linear_map: domain 'module' requires a representation or bimodule block")
            source = module.space
        entries = _parse_entries(block.get("matrix"), space.dim, source.dim, "linear_map.matrix")
        fields["linear_map"] = _checked("linear_map.matrix", GradedLinearMap._from_columns,
                                        source, space, _sparse_columns(entries, source.dim), parity)
        fields["linear_map_domain"] = domain

    if (block := _block(obj, "tensor2")) is not None:
        parity = _parse_parity(block, "tensor2")
        entries = _parse_entries(block.get("coeffs"), space.dim, space.dim, "tensor2.coeffs")
        fields["tensor2"] = _checked("tensor2.coeffs", Tensor2._from_entries,
                                     space, entries, parity)

    if (block := _block(obj, "bilinear_form")) is not None:
        entries = _parse_entries(block.get("matrix"), space.dim, space.dim, "bilinear_form.matrix")
        fields["bilinear_form"] = _checked("bilinear_form.matrix", BilinearForm._from_entries,
                                           space, entries)

    return AlgebraDocument(**fields)
