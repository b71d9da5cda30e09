"""Structure-constant superalgebras and the defining-identity checkers.

A ``Superalgebra`` stores each product as sparse rows: the row of the
basis pair (i, j) maps k to the nonzero coefficient of ``b_k`` in
``b_i * b_j``, and pairs with ``b_i * b_j = 0`` have no row.  The rows are
built once, when the algebra is, and the storage grows with the nonzero
structure constants, not with the cube of the dimension; ``table()``
derives the dense ``c[i][j][k]`` on demand.  Single-product algebras use
the name ``"mul"``; pre-alternative algebras carry the two products
``"prec"`` and ``"succ"``.

Every checker walks homogeneous basis tuples only: the identities are
multilinear and parity-homogeneous, so vanishing on basis tuples is
equivalent to vanishing on all homogeneous elements.  Checkers are pure
and their reports do not depend on iteration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

from ._linalg import ONE, ZERO, as_scalar
from .graded import (
    GradedVector,
    ParityViolation,
    SuperSpace,
    koszul_sign,
    vector_from_sparse,
)

Table = tuple[tuple[tuple[Fraction, ...], ...], ...]
Sparse = dict[int, Fraction]
Rows = Mapping[tuple[int, int], Mapping[int, Fraction]]

DEFAULT_WITNESS_LIMIT = 16


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of an identity check.

    ``witnesses`` holds up to ``witness_limit`` failing tuples with their
    nonzero leftovers; ``violation_count`` is always the exact number of
    failing tuples.  An identity holds iff the report is ``ok``.
    """

    identity: str
    witnesses: tuple[tuple[tuple[int, ...], Union[GradedVector, Fraction]], ...]
    violation_count: int
    checked_tuples: int
    precondition_failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and not self.precondition_failures

    def __bool__(self) -> bool:
        return self.ok


class _WitnessCollector:
    def __init__(self, identity: str, limit: int = DEFAULT_WITNESS_LIMIT):
        if limit < 1:
            raise ValueError(f"witness_limit must be at least 1, got {limit}")
        self.identity = identity
        self.limit = limit
        self.witnesses: list = []
        self.count = 0
        self.checked = 0
        self.preconditions: list[str] = []

    def tick(self):
        self.checked += 1

    def add(self, indices: tuple[int, ...], leftover):
        self.count += 1
        if len(self.witnesses) < self.limit:
            self.witnesses.append((indices, leftover))

    def report(self, checked: int | None = None) -> ViolationReport:
        return ViolationReport(
            self.identity,
            tuple(self.witnesses),
            self.count,
            self.checked if checked is None else checked,
            tuple(self.preconditions),
        )


def _add_scaled(dst: Sparse, src: Mapping[int, Fraction], factor: Fraction):
    if factor == 0:
        return
    for k, c in src.items():
        v = dst.get(k, ZERO) + factor * c
        if v == 0:
            dst.pop(k, None)
        else:
            dst[k] = v


@dataclass(frozen=True)
class Superalgebra:
    """Structure constants as sparse rows: ``products[name][(i, j)]`` maps
    each k with a nonzero coefficient of b_k in b_i * b_j to that
    coefficient.  Rows are stored sorted, zeros dropped and frozen."""

    space: SuperSpace
    products: Mapping[str, Rows]

    def __post_init__(self):
        par = self.space.parity
        frozen = {}
        for name, rows in self.products.items():
            cleaned: dict[tuple[int, int], dict[int, Fraction]] = {}
            for (i, j), row in sorted(rows.items()):
                for k, c in sorted(row.items()):
                    c = as_scalar(c)
                    if par(k) != (par(i) + par(j)) % 2 and c != 0:
                        raise ParityViolation(
                            f"product {name!r}: entry ({i}, {j}, {k}) = {c} maps "
                            f"parities ({par(i)}, {par(j)}) to parity {par(k)}"
                        )
                    if c:
                        cleaned.setdefault((i, j), {})[k] = c
            frozen[name] = MappingProxyType(
                {key: MappingProxyType(row) for key, row in cleaned.items()})
        object.__setattr__(self, "products", MappingProxyType(frozen))

    @staticmethod
    def from_entries(
        space: SuperSpace, entries: Mapping[str, Mapping[tuple[int, int, int], object]]
    ) -> "Superalgebra":
        products: dict[str, dict[tuple[int, int], dict[int, object]]] = {}
        for name, sparse in entries.items():
            rows = products[name] = {}
            for (i, j, k), c in sparse.items():
                rows.setdefault((i, j), {})[k] = c
        return Superalgebra(space, products)

    def product_names(self) -> tuple[str, ...]:
        return tuple(self.products.keys())

    def rows(self, product: str = "mul") -> Rows:
        """The stored sparse rows of one product."""
        try:
            return self.products[product]
        except KeyError:
            raise KeyError(
                f"unknown product {product!r}; algebra has {self.product_names()}"
            ) from None

    def table(self, product: str = "mul") -> Table:
        """The dense table ``c[i][j][k]``, derived from the rows on each call."""
        n = self.space.dim
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), row in self.rows(product).items():
            for k, c in row.items():
                table[i][j][k] = c
        return tuple(tuple(tuple(row) for row in plane) for plane in table)

    # -- sparse product evaluation -------------------------------------

    def mul_basis(self, i: int, j: int, product: str = "mul") -> Sparse:
        return self.rows(product).get((i, j), {}).copy()

    def mul_sparse(self, xs: Mapping[int, Fraction], ys: Mapping[int, Fraction],
                   product: str = "mul") -> Sparse:
        rows = self.rows(product)
        out: Sparse = {}
        for i, a in xs.items():
            for j, b in ys.items():
                row = rows.get((i, j))
                if row:
                    _add_scaled(out, row, a * b)
        return out

    def mul(self, x: GradedVector, y: GradedVector, product: str = "mul") -> GradedVector:
        """Bilinear extension of the structure constants to whole vectors."""
        if x.space.dim != self.space.dim or y.space.dim != self.space.dim:
            raise ValueError("vectors do not live in the algebra's space")
        return vector_from_sparse(
            self.space, self.mul_sparse(x.sparse(), y.sparse(), product)
        )

    def bracket_basis(self, i: int, j: int, product: str = "mul") -> Sparse:
        """[b_i, b_j] = b_i*b_j - (-1)^{|b_i||b_j|} b_j*b_i."""
        rows = self.rows(product)
        out = rows.get((i, j), {}).copy()
        sign = koszul_sign(self.space.parity(i), self.space.parity(j))
        _add_scaled(out, rows.get((j, i), {}), Fraction(-sign))
        return out


# -- identity checkers --------------------------------------------------


def _emit(alg: Superalgebra, collector: _WitnessCollector,
          indices: tuple[int, ...], residual: Sparse):
    collector.tick()
    if residual:
        collector.add(indices, vector_from_sparse(alg.space, residual))


def check_left_alternative(A: Superalgebra, product: str = "mul",
                           witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """as(x,y,z) + (-1)^{|x||y|} as(y,x,z) = 0 over homogeneous basis triples."""
    col = _WitnessCollector("left-alternative", witness_limit)
    n = A.space.dim
    par = A.space.parities()
    for i, j, k in itertools.product(range(n), repeat=3):
        res = _associator(A, product, i, j, k)
        _add_scaled(res, _associator(A, product, j, i, k), Fraction(koszul_sign(par[i], par[j])))
        _emit(A, col, (i, j, k), res)
    return col.report()


def check_right_alternative(A: Superalgebra, product: str = "mul",
                            witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """as(x,y,z) + (-1)^{|y||z|} as(x,z,y) = 0 over homogeneous basis triples."""
    col = _WitnessCollector("right-alternative", witness_limit)
    n = A.space.dim
    par = A.space.parities()
    for i, j, k in itertools.product(range(n), repeat=3):
        res = _associator(A, product, i, j, k)
        _add_scaled(res, _associator(A, product, i, k, j), Fraction(koszul_sign(par[j], par[k])))
        _emit(A, col, (i, j, k), res)
    return col.report()


def _associator(A: Superalgebra, product: str, i: int, j: int, k: int) -> Sparse:
    rows = A.rows(product)
    out = A.mul_sparse(rows.get((i, j), {}), {k: ONE}, product)
    _add_scaled(out, A.mul_sparse({i: ONE}, rows.get((j, k), {}), product), Fraction(-1))
    return out


def check_malcev(A: Superalgebra, product: str = "mul",
                 witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Graded anticommutativity plus the four-variable Malcev super identity.

    ``checked_tuples`` counts the quadruples of the defining identity; the
    anticommutativity scan over basis pairs contributes witnesses (index
    pairs) and violations but not tuples.
    """
    col = _WitnessCollector("malcev", witness_limit)
    n = A.space.dim
    par = A.space.parities()
    rows = A.rows(product)
    for i, j in itertools.product(range(n), repeat=2):
        res = rows.get((i, j), {}).copy()
        _add_scaled(res, rows.get((j, i), {}), Fraction(koszul_sign(par[i], par[j])))
        if res:
            col.add((i, j), vector_from_sparse(A.space, res))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        # (-1)^{|y||z|} [[x,z],[y,t]]
        res = A.mul_sparse(rows.get((i, k), {}), rows.get((j, l), {}), product)
        if koszul_sign(par[j], par[k]) < 0:
            res = {key: -c for key, c in res.items()}
        # - [[[x,y],z],t]
        t1 = A.mul_sparse(A.mul_sparse(rows.get((i, j), {}), {k: ONE}, product), {l: ONE}, product)
        _add_scaled(res, t1, Fraction(-1))
        # - (-1)^{|x|(|y|+|z|+|t|)} [[[y,z],t],x]
        t2 = A.mul_sparse(A.mul_sparse(rows.get((j, k), {}), {l: ONE}, product), {i: ONE}, product)
        _add_scaled(res, t2, Fraction(-koszul_sign(par[i], par[j] + par[k] + par[l])))
        # - (-1)^{(|x|+|y|)(|z|+|t|)} [[[z,t],x],y]
        t3 = A.mul_sparse(A.mul_sparse(rows.get((k, l), {}), {i: ONE}, product), {j: ONE}, product)
        _add_scaled(res, t3, Fraction(-koszul_sign(par[i] + par[j], par[k] + par[l])))
        # - (-1)^{|t|(|x|+|y|+|z|)} [[[t,x],y],z]
        t4 = A.mul_sparse(A.mul_sparse(rows.get((l, i), {}), {j: ONE}, product), {k: ONE}, product)
        _add_scaled(res, t4, Fraction(-koszul_sign(par[l], par[i] + par[j] + par[k])))
        _emit(A, col, (i, j, k, l), res)
    return col.report()


def check_pre_malcev(A: Superalgebra, product: str = "mul",
                     witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The five-term pre-Malcev identity PM(x,y,z,t) = 0 on basis quadruples.

    The bracket inside the identity is the commutator
    [x,y] = x*y - (-1)^{|x||y|} y*x of the algebra's own product.
    """
    col = _WitnessCollector("pre-malcev", witness_limit)
    n = A.space.dim
    par = A.space.parities()
    rows = A.rows(product)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        # (-1)^{|x|(|y|+|z|)} [y,z].(x.t)
        res = A.mul_sparse(A.bracket_basis(j, k, product), rows.get((i, l), {}), product)
        s = koszul_sign(par[i], par[j] + par[k])
        if s < 0:
            res = {key: -c for key, c in res.items()}
        # [[x,y],z].t
        br = A.bracket_basis(i, j, product)
        brz = A.mul_sparse(br, {k: ONE}, product)
        _add_scaled(brz, A.mul_sparse({k: ONE}, br, product),
                    Fraction(-koszul_sign(par[i] + par[j], par[k])))
        _add_scaled(res, A.mul_sparse(brz, {l: ONE}, product), ONE)
        # (-1)^{|x||y|} y.([x,z].t)
        t3 = A.mul_sparse({j: ONE},
                          A.mul_sparse(A.bracket_basis(i, k, product), {l: ONE}, product),
                          product)
        _add_scaled(res, t3, Fraction(koszul_sign(par[i], par[j])))
        # - x.(y.(z.t))
        t4 = A.mul_sparse({i: ONE},
                          A.mul_sparse({j: ONE}, rows.get((k, l), {}), product), product)
        _add_scaled(res, t4, Fraction(-1))
        # (-1)^{|z|(|x|+|y|)} z.(x.(y.t))
        t5 = A.mul_sparse({k: ONE},
                          A.mul_sparse({i: ONE}, rows.get((j, l), {}), product), product)
        _add_scaled(res, t5, Fraction(koszul_sign(par[k], par[i] + par[j])))
        _emit(A, col, (i, j, k, l), res)
    return col.report()


def check_pre_alternative(A: Superalgebra,
                          witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The four compatibility identities of a (prec, succ) product pair.

    Witness index tuples are (identity#, i, j, k) with identity# in 0..3;
    ``checked_tuples`` counts basis triples.
    """
    for name in ("prec", "succ"):
        if name not in A.products:
            raise KeyError(f"pre-alternative check requires a {name!r} product")
    col = _WitnessCollector("pre-alternative", witness_limit)
    n = A.space.dim
    par = A.space.parities()

    def star(xs: Sparse, ys: Sparse) -> Sparse:
        out = A.mul_sparse(xs, ys, "prec")
        _add_scaled(out, A.mul_sparse(xs, ys, "succ"), ONE)
        return out

    def prec(xs, ys):
        return A.mul_sparse(xs, ys, "prec")

    def succ(xs, ys):
        return A.mul_sparse(xs, ys, "succ")

    for i, j, k in itertools.product(range(n), repeat=3):
        col.tick()
        x, y, z = {i: ONE}, {j: ONE}, {k: ONE}
        s_xy = Fraction(koszul_sign(par[i], par[j]))
        s_yz = Fraction(koszul_sign(par[j], par[k]))
        residuals = []
        # (x*y) succ z - x succ (y succ z) + s_xy (y*x) succ z - s_xy y succ (x succ z)
        r1 = succ(star(x, y), z)
        _add_scaled(r1, succ(x, succ(y, z)), Fraction(-1))
        _add_scaled(r1, succ(star(y, x), z), s_xy)
        _add_scaled(r1, succ(y, succ(x, z)), -s_xy)
        residuals.append(r1)
        # (x prec y) prec z - x prec (y*z) + s_yz (x prec z) prec y - s_yz x prec (z*y)
        r2 = prec(prec(x, y), z)
        _add_scaled(r2, prec(x, star(y, z)), Fraction(-1))
        _add_scaled(r2, prec(prec(x, z), y), s_yz)
        _add_scaled(r2, prec(x, star(z, y)), -s_yz)
        residuals.append(r2)
        # (x succ y) prec z - x succ (y prec z) + s_xy (y prec x) prec z - s_xy y prec (x*z)
        r3 = prec(succ(x, y), z)
        _add_scaled(r3, succ(x, prec(y, z)), Fraction(-1))
        _add_scaled(r3, prec(prec(y, x), z), s_xy)
        _add_scaled(r3, prec(y, star(x, z)), -s_xy)
        residuals.append(r3)
        # (x succ y) prec z - x succ (y prec z) + s_yz (x*z) succ y - s_yz x succ (z succ y)
        r4 = prec(succ(x, y), z)
        _add_scaled(r4, succ(x, prec(y, z)), Fraction(-1))
        _add_scaled(r4, succ(star(x, z), y), s_yz)
        _add_scaled(r4, succ(x, succ(z, y)), -s_yz)
        residuals.append(r4)
        for q, res in enumerate(residuals):
            if res:
                col.add((q, i, j, k), vector_from_sparse(A.space, res))
    return col.report()


# -- functors ------------------------------------------------------------


def _add_rows(out: dict[tuple[int, int, int], Fraction], rows: Rows,
              flip: tuple[int, ...] | None = None):
    """Add the entries of ``rows`` into the triples ``out``.  Given the
    parities as ``flip``, entry (i, j, k) goes to (j, i, k) times
    -(-1)^{|b_i||b_j|} instead."""
    for (i, j), row in rows.items():
        key, sign = ((j, i), -koszul_sign(flip[i], flip[j])) if flip else ((i, j), 1)
        for k, c in row.items():
            out[key + (k,)] = out.get(key + (k,), ZERO) + sign * c


def commutator_superalgebra(A: Superalgebra, product: str = "mul") -> Superalgebra:
    """[x,y] = x*y - (-1)^{|x||y|} y*x, as a new single-product algebra."""
    bracket: dict[tuple[int, int, int], Fraction] = {}
    _add_rows(bracket, A.rows(product))
    _add_rows(bracket, A.rows(product), A.space.parities())
    return Superalgebra.from_entries(A.space, {"mul": bracket})


def sum_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x*y = x prec y + x succ y collapses (prec, succ) to one product."""
    total: dict[tuple[int, int, int], Fraction] = {}
    _add_rows(total, A.rows("prec"))
    _add_rows(total, A.rows("succ"))
    return Superalgebra.from_entries(A.space, {"mul": total})


def pre_malcev_from_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x.y = x succ y - (-1)^{|x||y|} y prec x."""
    dot: dict[tuple[int, int, int], Fraction] = {}
    _add_rows(dot, A.rows("succ"))
    _add_rows(dot, A.rows("prec"), A.space.parities())
    return Superalgebra.from_entries(A.space, {"mul": dot})
