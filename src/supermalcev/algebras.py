"""Structure-constant superalgebras and the defining-identity checkers.

A ``Superalgebra`` stores each product as sparse rows: the row of the
basis pair (i, j) maps k to the nonzero coefficient of ``b_k`` in
``b_i * b_j``, and pairs with ``b_i * b_j = 0`` have no row.  The rows are
built once, when the algebra is, and the storage grows with the nonzero
structure constants, not with the cube of the dimension; ``table()``
derives the dense ``c[i][j][k]`` on demand.  Single-product algebras use
the name ``"mul"``; pre-alternative algebras carry the two products
``"prec"`` and ``"succ"``.  Every checker and functor reads ``mul``, except
those of pre-alternative algebras, which read ``prec`` and ``succ``.

Every checker walks homogeneous basis tuples only: the identities are
multilinear and parity-homogeneous, so vanishing on basis tuples is
equivalent to vanishing on all homogeneous elements.  Checkers are pure
and their reports do not depend on iteration order.

The identities are written once, as data, in ``_IDENTITIES``: an
expression is a variable position, a product ``(name, left, right)`` or a
sum ``((coef, expr), ...)`` with the coefficients of the ungraded identity.
The Koszul factors follow from the sign rule: a product's leaf order is its
factors' orders joined, a sum's is its variables in increasing order, and
each summand of a sum carries the Koszul sign of the permutation that sorts
its leaf order.  Each check call compiles the expressions once and memoizes
every subexpression of at most three variables, keyed by its shape (the
expression renamed by its leaf order) and its basis indices: at most n^3
values per shape, so the four Malcev terms ``((..)..)..`` share one table
of ``(b_i b_j) b_k``.  A product of two variables is one row lookup.

Public values (structure constants, ``mul``, ``mul_sparse``, witness
leftovers) stay ``Fraction``.  A check call computes in integers instead:
it scales the rows of the products it reads by their common denominator D
(``_kernel``), so every residual of a degree-d identity is D^(d-1) times
the rational one, and a witness's leftover is divided back before it is
reported.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Union

from ._kernel import EMPTY, add_scaled, denominator, mul, scaled_rows, unscaled
from ._linalg import ZERO, as_scalar
from .graded import (
    GradedVector,
    ParityViolation,
    SuperSpace,
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

    def add(self, indices: tuple[int, ...], leftover: Callable[[], object]):
        """Count a failing tuple; ``leftover()`` builds its leftover, and is
        called only if the witness is kept."""
        self.count += 1
        if len(self.witnesses) < self.limit:
            self.witnesses.append((indices, leftover()))

    def report(self) -> ViolationReport:
        return ViolationReport(
            self.identity,
            tuple(self.witnesses),
            self.count,
            self.checked,
            tuple(self.preconditions),
        )


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
        return mul(self.rows(product), xs, ys)

    def mul(self, x: GradedVector, y: GradedVector, product: str = "mul") -> GradedVector:
        """Bilinear extension of the structure constants to whole vectors."""
        if x.space.dim != self.space.dim or y.space.dim != self.space.dim:
            raise ValueError("vectors do not live in the algebra's space")
        return vector_from_sparse(
            self.space, self.mul_sparse(x.sparse(), y.sparse(), product)
        )


# -- identity checkers --------------------------------------------------

X, Y, Z, T = range(4)


def _m(a, b):
    return ("mul", a, b)


def _br(a, b):
    return ((1, _m(a, b)), (-1, _m(b, a)))


def _assoc(a, b, c):
    return ((1, _m(_m(a, b), c)), (-1, _m(a, _m(b, c))))


def _star(a, b):
    return ((1, ("prec", a, b)), (1, ("succ", a, b)))


# identity -> its walks over basis tuples, in order; a walk is a tuple of
# components of one degree.  Only the tuples of the last walk are counted.
# Each product is named by the algebra product it reads.  The sign rule
# holds only if every summand uses each variable of its sum exactly once.
_IDENTITIES = {
    "left-alternative": ((_assoc(X, Y, Z) + _assoc(Y, X, Z),),),
    "right-alternative": ((_assoc(X, Y, Z) + _assoc(X, Z, Y),),),
    "malcev": (
        (((1, _m(X, Y)), (1, _m(Y, X))),),  # graded anticommutativity
        (((1, _m(_m(X, Z), _m(Y, T))), (-1, _m(_m(_m(X, Y), Z), T)),
          (-1, _m(_m(_m(Y, Z), T), X)), (-1, _m(_m(_m(Z, T), X), Y)),
          (-1, _m(_m(_m(T, X), Y), Z))),),
    ),
    "pre-malcev": ((
        ((1, _m(_br(Y, Z), _m(X, T))), (1, _m(_br(_br(X, Y), Z), T)),
         (1, _m(Y, _m(_br(X, Z), T))), (-1, _m(X, _m(Y, _m(Z, T)))),
         (1, _m(Z, _m(X, _m(Y, T))))),
    ),),
    "pre-alternative": ((
        ((1, ("succ", _star(X, Y), Z)), (-1, ("succ", X, ("succ", Y, Z))),
         (1, ("succ", _star(Y, X), Z)), (-1, ("succ", Y, ("succ", X, Z)))),
        ((1, ("prec", ("prec", X, Y), Z)), (-1, ("prec", X, _star(Y, Z))),
         (1, ("prec", ("prec", X, Z), Y)), (-1, ("prec", X, _star(Z, Y)))),
        ((1, ("prec", ("succ", X, Y), Z)), (-1, ("succ", X, ("prec", Y, Z))),
         (1, ("prec", ("prec", Y, X), Z)), (-1, ("prec", Y, _star(X, Z)))),
        ((1, ("prec", ("succ", X, Y), Z)), (-1, ("succ", X, ("prec", Y, Z))),
         (1, ("succ", _star(X, Z), Y)), (-1, ("succ", X, ("succ", Z, Y)))),
    ),),
}


def _leaves(expr) -> tuple[int, ...]:
    if isinstance(expr, int):
        return (expr,)
    if isinstance(expr[0], str):
        return _leaves(expr[1]) + _leaves(expr[2])
    return tuple(sorted(_leaves(expr[0][1])))


def _renamed(expr, order: tuple[int, ...]):
    """``expr`` with each variable replaced by its position in ``order``."""
    if isinstance(expr, int):
        return order.index(expr)
    if isinstance(expr[0], str):
        return (expr[0], _renamed(expr[1], order), _renamed(expr[2], order))
    return tuple((coef, _renamed(sub, order)) for coef, sub in expr)


def _products(expr) -> list[str]:
    """The product names an expression reads, in the order they occur."""
    if isinstance(expr, int):
        return []
    if isinstance(expr[0], str):
        return [expr[0]] + _products(expr[1]) + _products(expr[2])
    return [name for _, sub in expr for name in _products(sub)]


def _is_lookup(expr) -> bool:
    """Whether ``expr`` is the product of two variables: one row lookup."""
    return isinstance(expr[0], str) and isinstance(expr[1], int) and isinstance(expr[2], int)


def _koszul(order: tuple[int, ...], parity: Mapping[int, int]) -> int:
    """The Koszul sign of the permutation that sorts the variables ``order``."""
    return (-1) ** sum(parity[a] & parity[b]
                       for i, a in enumerate(order) for b in order[i + 1:] if a > b)


class _Compiler:
    """Compiles expressions into functions of a basis tuple, for one check
    call, and holds that call's scaled rows and memo.

    The rows of every product the expressions read are scaled by their
    common denominator ``D`` into ``int``, so an expression of d variables
    evaluates to D^(d-1) times its rational value.  Memoized values and rows
    are never mutated: a sum accumulates into a fresh dict, and zero values
    share ``EMPTY``."""

    def __init__(self, A: Superalgebra, exprs):
        names = dict.fromkeys(name for expr in exprs for name in _products(expr))
        # an unknown product fails here, whatever the dimension
        rows = {name: A.rows(name) for name in names}
        self.D = denominator(*(r.values() for r in rows.values()))
        self.rows = {name: scaled_rows(r, self.D) for name, r in rows.items()}
        self.parities = A.space.parities()
        self.units = tuple({k: 1} for k in range(A.space.dim))
        self.memos: dict = {}  # shape -> (values by basis indices, function)

    def compile(self, expr, memoize: bool = True):
        if isinstance(expr, int):
            units = self.units
            return lambda idx: units[idx[expr]]
        leaves = _leaves(expr)
        if memoize and len(leaves) <= 3 and not _is_lookup(expr):
            shape = _renamed(expr, leaves)
            if shape not in self.memos:
                self.memos[shape] = ({}, self.compile(shape, memoize=False))
            table, compute = self.memos[shape]
            key_of = operator.itemgetter(*leaves)

            def memoized(idx):
                key = key_of(idx)
                value = table.get(key)
                if value is None:
                    value = table[key] = compute(key) or EMPTY
                return value
            return memoized
        if isinstance(expr[0], str):
            rows = self.rows[expr[0]]
            a, b = expr[1], expr[2]
            if _is_lookup(expr):
                return lambda idx: rows.get((idx[a], idx[b]), EMPTY)
            left, right = self.compile(a), self.compile(b)
            return lambda idx: mul(rows, left(idx), right(idx))
        # the summands' coefficients for an assignment of parities to the
        # leaves, built the first time that assignment occurs
        orders = tuple((coef, _leaves(sub)) for coef, sub in expr)
        signed: dict[tuple[int, ...], tuple[int, ...]] = {}
        terms = tuple(self.compile(sub) for _, sub in expr)
        par = self.parities

        def total(idx):
            bits = tuple([par[idx[v]] for v in leaves])
            coefs = signed.get(bits)
            if coefs is None:
                parity = dict(zip(leaves, bits))
                coefs = signed[bits] = tuple(coef * _koszul(order, parity)
                                             for coef, order in orders)
            out: dict = {}
            for coef, term in zip(coefs, terms):
                add_scaled(out, term(idx), coef)
            return out
        return total


def _check(A: Superalgebra, identity: str, witness_limit: int) -> ViolationReport:
    """Walk basis tuples in lexicographic order; in a walk of several
    components, component q witnesses ``(q,) + idx``."""
    col = _WitnessCollector(identity, witness_limit)
    walks = _IDENTITIES[identity]
    compiler = _Compiler(A, [expr for walk in walks for expr in walk])
    for w, components in enumerate(walks):
        degree = len(_leaves(components[0]))
        scale = compiler.D ** (degree - 1)  # each term multiplies degree - 1 rows
        residuals = [compiler.compile(expr, memoize=False) for expr in components]
        for idx in itertools.product(range(A.space.dim), repeat=degree):
            if w == len(walks) - 1:
                col.tick()
            for q, residual in enumerate(residuals):
                res = residual(idx)
                if res:
                    col.add((q,) + idx if len(residuals) > 1 else idx,
                            lambda: vector_from_sparse(A.space, unscaled(res, scale)))
    return col.report()


def check_left_alternative(A: Superalgebra,
                           witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """as(x,y,z) + (-1)^{|x||y|} as(y,x,z) = 0 over homogeneous basis triples."""
    return _check(A, "left-alternative", witness_limit)


def check_right_alternative(A: Superalgebra,
                            witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """as(x,y,z) + (-1)^{|y||z|} as(x,z,y) = 0 over homogeneous basis triples."""
    return _check(A, "right-alternative", witness_limit)


def check_malcev(A: Superalgebra,
                 witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Graded anticommutativity plus the four-variable Malcev super identity.

    ``checked_tuples`` counts the quadruples of the defining identity; the
    anticommutativity scan over basis pairs contributes witnesses (index
    pairs) and violations but not tuples.
    """
    return _check(A, "malcev", witness_limit)


def check_pre_malcev(A: Superalgebra,
                     witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The five-term pre-Malcev identity PM(x,y,z,t) = 0 on basis quadruples.

    The bracket inside the identity is the commutator
    [x,y] = x*y - (-1)^{|x||y|} y*x of the algebra's own product.
    """
    return _check(A, "pre-malcev", witness_limit)


def check_pre_alternative(A: Superalgebra,
                          witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The four compatibility identities of a (prec, succ) product pair.

    Witness index tuples are (identity#, i, j, k) with identity# in 0..3;
    ``checked_tuples`` counts basis triples.
    """
    for name in ("prec", "succ"):
        if name not in A.products:
            raise KeyError(f"pre-alternative check requires a {name!r} product")
    return _check(A, "pre-alternative", witness_limit)


# -- functors ------------------------------------------------------------


def _derived(A: Superalgebra, expr) -> Superalgebra:
    """The single-product algebra whose x.y is ``expr`` at (x, y) = (X, Y)."""
    compiler = _Compiler(A, [expr])
    product_of = compiler.compile(expr, memoize=False)
    return Superalgebra.from_entries(A.space, {"mul": {
        (i, j, k): c
        for i, j in itertools.product(range(A.space.dim), repeat=2)
        for k, c in unscaled(product_of((i, j)), compiler.D).items()
    }})


def commutator_superalgebra(A: Superalgebra) -> Superalgebra:
    """[x,y] = x*y - (-1)^{|x||y|} y*x, as a new single-product algebra."""
    return _derived(A, _br(X, Y))


def sum_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x*y = x prec y + x succ y collapses (prec, succ) to one product."""
    return _derived(A, _star(X, Y))


def pre_malcev_from_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x.y = x succ y - (-1)^{|x||y|} y prec x."""
    return _derived(A, ((1, ("succ", X, Y)), (-1, ("prec", Y, X))))
