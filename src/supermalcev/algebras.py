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

Every checker decides its identity on homogeneous basis tuples only: the
identities are multilinear and parity-homogeneous, so vanishing on basis
tuples is equivalent to vanishing on all homogeneous elements.  A report
counts every basis tuple in ``checked_tuples`` (n^d for an identity of d
variables), but the work follows the nonzero structure constants: a tuple
at which every term is zero is never visited.  Checkers are pure and their
reports do not depend on iteration order.

The identities are written once, as data, in ``_IDENTITIES``: an
expression is a variable position, a product ``(name, left, right)`` or a
sum ``((coef, expr), ...)`` with the coefficients of the ungraded identity.
The Koszul factors follow from the sign rule: a product's leaf order is its
factors' orders joined, a sum's is its variables in increasing order, and
each summand of a sum carries the Koszul sign of the permutation that sorts
its leaf order.

One evaluator computes every identity as sparse joins (Gustavson's row-wise
sparse product, applied to expressions as joins over nonzeros).  A
subexpression of at most three variables becomes a per-call table of its
nonzero values, keyed by its basis indices and shared by shape (the
expression renamed by its leaf order), so the four Malcev terms
``((..)..)..`` read one table of ``(b_i b_j) b_k``.  A product of two
variables is the rows themselves.  The identity itself is summed one block
of its first index at a time: each summand of a block joins the values of
its side that holds the first index to the other side's values through
the rows' partner lists and that side's index by support, and adds each
term straight into the value of the tuple it changes, with the Koszul sign
of the two keys' parity masks.  The joins read each row packed into one
``int`` (``_kernel.packed``), so a term is one integer multiply-add and a
value is one integer; only the tables of subexpressions, witness leftovers
and the functors' rows are unpacked into sparse vectors.  Where the other
side is not a single variable, as in J = (xz)(yt) and pre-Malcev's
[y,z](xt), a driven value of several entries is first folded into one sum
of rows per partner, which each other-side key adds once.  No table over
all n^d tuples is held (the Malcev walk holds the values it hands on until
later blocks read them, below); the failing tuples of a block are its
nonzero keys, and the witnesses are read off them in lexicographic order.

Four summands of the four-variable Malcev identity are the rotations of
((xy)z)t, so on every product their signed sum, the cyclic part C,
satisfies C(y,z,t,x) = (-1)^{|x|(|y|+|z|+|t|)} C(x,y,z,t).  On a
graded-anticommutative product the fifth summand J = (xz)(yt) obeys the
same rule.  The quadruples are walked with one rule: block a joins the
summands that obey it (all five once the anticommutativity walk has found
no violation, C otherwise) only at the quadruples whose indices are all at
least a, which hold the least rotation of every orbit, and J, if it is not
among them, at every quadruple whose first index is a.  Each nonzero value
joined at a least rotation is handed on to the block of each later
rotation, with that rotation's sign, and added there: always when only C is
joined per orbit, otherwise while witness room is left, after which the
later rotations are counted in place.  Until their blocks come, those
values are held: at most the nonzero values of C, or three per witness.
The count, witnesses, their order and leftovers are those of the full walk.

Public values (structure constants, ``mul``, ``mul_sparse``, witness
leftovers) stay ``Fraction``.  A check call computes in integers instead:
it scales the rows of the products it reads by their common denominator D
(``_kernel``), so every residual of a degree-d identity is D^(d-1) times
the rational one, and a witness's leftover is unpacked and divided back
before it is reported.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from ._kernel import (Frozen, Rows, Vector, denominator, mul, packed, scaled_rows,
                      slot_width, unpack, unscaled)
from ._linalg import ZERO, as_scalar
from .graded import (
    DimensionMismatch,
    GradedVector,
    ParityViolation,
    SuperSpace,
    _shape,
    vector_from_sparse,
)

Table = tuple[tuple[tuple[Fraction, ...], ...], ...]

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

    def tally(self, tuples: int, failures: int):
        """Count checked and failing tuples whose witnesses come later."""
        self.checked += tuples
        self.count += failures

    def add(self, indices: tuple[int, ...], leftover: Callable[[], object],
            failures: int = 1) -> bool:
        """Count ``failures`` failing tuples and keep ``indices`` as a witness
        if there is room; ``leftover()`` builds its leftover, and is called
        only if the witness is kept.  Returns whether there is room left."""
        self.count += failures
        if len(self.witnesses) < self.limit:
            self.witnesses.append((indices, leftover()))
        return len(self.witnesses) < self.limit

    def report(self) -> ViolationReport:
        return ViolationReport(
            self.identity,
            tuple(self.witnesses),
            self.count,
            self.checked,
            tuple(self.preconditions),
        )


def _frozen_products(products: Mapping[str, Rows]) -> Frozen:
    """The products sorted by name, each row by key and its entries by
    index, all ``Frozen``: the one stored form of an algebra's rows."""
    return Frozen({name: Frozen({key: Frozen(sorted(row.items()))
                                 for key, row in sorted(rows.items())})
                   for name, rows in sorted(products.items())})


@dataclass(frozen=True)
class Superalgebra:
    """Structure constants as sparse rows: ``products[name][(i, j)]`` maps
    each k with a nonzero coefficient of b_k in b_i * b_j to that
    coefficient.  Stored sorted (the products by name, the rows by key),
    zeros dropped, read-only (``Frozen``).  It checks every entry; in the
    package only ``from_entries`` calls it, on hand-written constants.  The
    constructions, whose rows are computed from checked values, and the
    parser, which checks each entry as it reads it, build through
    ``_from_rows``, which checks none."""

    space: SuperSpace
    products: Mapping[str, Rows]

    def __post_init__(self):
        par, n = self.space.parities(), self.space.dim
        cleaned: dict[str, dict[tuple[int, int], dict[int, Fraction]]] = {}
        for name, rows in sorted(self.products.items()):
            out = cleaned[name] = {}
            for (i, j), row in sorted(rows.items()):
                for k, c in sorted(row.items()):
                    c = as_scalar(c)
                    if not (0 <= k < n and 0 <= i < n and 0 <= j < n):
                        raise IndexError(next(x for x in (k, i, j) if not 0 <= x < n))
                    if par[k] != (par[i] + par[j]) % 2 and c != 0:
                        raise ParityViolation(
                            f"product {name!r}: entry ({i}, {j}, {k}) = {c} maps "
                            f"parities ({par[i]}, {par[j]}) to parity {par[k]}"
                        )
                    if c:
                        out.setdefault((i, j), {})[k] = c
        object.__setattr__(self, "products", _frozen_products(cleaned))

    @classmethod
    def _from_rows(cls, space: SuperSpace, products: Mapping[str, Rows]) -> "Superalgebra":
        """The algebra of rows the package has computed or the parser has
        checked: every index in range, every coefficient a nonzero
        ``Fraction`` of the right parity, no row empty.  Nothing is checked;
        the rows are sorted and frozen as the public constructor does, so
        the value is the one it builds."""
        algebra = object.__new__(cls)
        algebra.__dict__.update(space=space, products=_frozen_products(products))
        return algebra

    @staticmethod
    def from_entries(
        space: SuperSpace, entries: Mapping[str, Mapping[tuple[int, int, int], object]]
    ) -> "Superalgebra":
        """The algebra of hand-written constants ``{(i, j, k): c}``, regrouped
        into rows; the package itself builds rows directly."""
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

    def mul_basis(self, i: int, j: int, product: str = "mul") -> dict[int, Fraction]:
        return self.rows(product).get((i, j), {}).copy()

    def mul_sparse(self, xs: Vector, ys: Vector, product: str = "mul") -> dict[int, Fraction]:
        return mul(self.rows(product), xs, ys)

    def mul(self, x: GradedVector, y: GradedVector, product: str = "mul") -> GradedVector:
        """Bilinear extension of the structure constants to whole vectors."""
        if _shape(x.space) != _shape(self.space) or _shape(y.space) != _shape(self.space):
            raise DimensionMismatch("vectors do not live in the algebra's space")
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
# The Malcev quadruple walk reads its first summand as J = (xz)(yt) and the
# other four, the rotations of ((xy)z)t, as the cyclic part C.
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


@functools.cache
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


@functools.cache
def _weight(expr) -> int:
    """The sum of the absolute coefficients of ``expr`` written out as a sum
    of products of variables."""
    if isinstance(expr, int):
        return 1
    if isinstance(expr[0], str):
        return _weight(expr[1]) * _weight(expr[2])
    return sum(abs(coef) * _weight(sub) for coef, sub in expr)


@functools.cache
def _products(expr) -> tuple[str, ...]:
    """The product names an expression reads, in the order they occur."""
    if isinstance(expr, int):
        return ()
    if isinstance(expr[0], str):
        return (expr[0],) + _products(expr[1]) + _products(expr[2])
    return tuple(name for _, sub in expr for name in _products(sub))


def _is_lookup(expr) -> bool:
    """Whether ``expr`` is the product of two variables: one row lookup."""
    return isinstance(expr[0], str) and isinstance(expr[1], int) and isinstance(expr[2], int)


def _koszul(order: tuple[int, ...], parity: Mapping[int, int]) -> int:
    """The Koszul sign of the permutation that sorts the variables ``order``."""
    return (-1) ** sum(parity[a] & parity[b]
                       for i, a in enumerate(order) for b in order[i + 1:] if a > b)


@functools.cache
def _summands(expr) -> tuple:
    """How each summand ``coef * (name, left, right)`` of a sum or product
    is joined block by block of the expression's first leaf: the product's
    name, whether that leaf is on the right (the driven side), the driven
    and the other side's shapes, the leaf's position in the driven side,
    the re-keying of the driven side's key plus the other's into the
    expression's leaf order, the signed coefficient by the two keys' parity
    masks, and whether to fold the driven values (the other side is not a
    variable).  It depends on the expression only, so it is built once per
    expression of this module and reused by every call."""
    leaves = _leaves(expr)
    out = []
    for coef, (name, left, right) in ((1, expr),) if isinstance(expr[0], str) else expr:
        sides = [(_leaves(side), _renamed(side, _leaves(side))) for side in (left, right)]
        flip = leaves[0] not in sides[0][0]
        (dl, driven), (ol, other) = sides[::-1] if flip else sides
        joined, order = dl + ol, sides[0][0] + sides[1][0]
        signs = tuple(tuple(coef * _koszul(order, {v: m >> p & 1 for p, v in enumerate(joined)})
                            for m in range(dm, 1 << len(joined), 1 << len(dl)))
                      for dm in range(1 << len(dl)))
        out.append((name, flip, driven, dl.index(leaves[0]), other,
                    operator.itemgetter(*map(joined.index, leaves)), signs,
                    not isinstance(other, int)))
    return tuple(out)


class _Table:
    """The nonzero values of one shape at basis tuples, keyed by the tuple
    in leaf order, with the indexes a join reads.  Values are never mutated."""

    def __init__(self, values: Mapping, bits: list):
        self.values, self.dim = values, len(bits[0])
        self.masks = {key: sum(map(operator.getitem, bits, key)) for key in values}
        self._at: dict = {}

    @functools.cached_property
    def support(self) -> list:
        """support[j] -> (key, coefficient of b_j, min(key), parity mask of
        key) of each value with b_j in its support, by decreasing min(key)."""
        support = [[] for _ in range(self.dim)]
        for key in sorted(self.values, key=min, reverse=True):
            least, mask = min(key), self.masks[key]
            for j, c in self.values[key].items():
                support[j].append((key, c, least, mask))
        return support

    def at(self, p: int) -> dict:
        """index -> the keys that have that index at position p."""
        if p not in self._at:
            out = self._at[p] = {}
            for key in self.values:
                out.setdefault(key[p], []).append(key)
        return self._at[p]


class _Evaluator:
    """The tables and joins of one check call.

    The rows of every product the expressions read are scaled by their
    common denominator ``D`` into ``int``, so an expression of d variables
    evaluates to D^(d-1) times its rational value.  The joins read each
    row packed into one ``int`` with slots of ``width`` bits (``_kernel``),
    wide enough for every value of the expressions, and every value they
    return is packed too.  ``plan`` binds the summands of a sum or product
    to the call's tables, and ``block`` sums them at one index of its
    first leaf."""

    def __init__(self, A: Superalgebra, exprs):
        names = dict.fromkeys(name for expr in exprs for name in _products(expr))
        # an unknown product fails here, whatever the dimension
        rows = {name: A.rows(name) for name in names}
        self.D = denominator(*(r.values() for r in rows.values()))
        self.rows = {name: scaled_rows(r, self.D) for name, r in rows.items()}
        self.parities = par = A.space.parities()
        degree = max(map(len, map(_leaves, exprs)))
        self.width = slot_width((r.values() for r in self.rows.values()),
                                max(map(_weight, exprs)), degree - 1)
        # bits[p][i]: the parity of b_i at bit p of a key's parity mask
        self.bits = [[b << p for b in par] for p in range(degree)]
        # name -> (right[i] = [(j, row (i, j))], left[j] = [(i, row (i, j))]), packed
        self.partners = {}
        for name, r in self.rows.items():
            right, left = [[] for _ in par], [[] for _ in par]
            for (i, j), row in packed(r, self.width).items():
                right[i].append((j, row))
                left[j].append((i, row))
            self.partners[name] = right, left
        self.tables = {0: _Table({(i,): {i: 1} for i in range(len(par))}, self.bits)}

    def table(self, shape) -> _Table:
        if shape not in self.tables:
            if _is_lookup(shape):
                values = self.rows[shape[0]]
            else:
                plans, values = self.plan(shape), {}
                for a in range(len(self.parities)):
                    for key, v in self.block(plans, a).items():
                        values[key] = unpack(v, self.width)
            self.tables[shape] = _Table(values, self.bits)
        return self.tables[shape]

    def plan(self, expr) -> list:
        """The summands of a sum or product bound to this call's tables."""
        return [(table := self.table(driven), table.at(p), self.partners[name][flip],
                 self.table(other).support, rekey, signs, fold)
                for name, flip, driven, p, other, rekey, signs, fold in _summands(expr)]

    def block(self, plans, a: int, low: int = 0, out: dict | None = None) -> dict:
        """The nonzero packed values at the tuples whose first index is
        ``a`` and whose indices are all at least ``low``, plus the packed
        values ``out`` already holds (it is added to in place).

        Each term is one multiply-add of a packed row: per driven key, every
        term adds sign * c * d * row into the sum of its other-side key, the
        sign read off the two keys' parity masks, and each sum is added once
        into the value of its tuple.  A folded value of several entries is
        first summed per partner j into v_j = sum_i c * row (i, j), which
        each other-side key adds once."""
        out = {} if out is None else out
        for driven, at, partners, support, rekey, signs, fold in plans:
            for key in at.get(a, ()):
                if low and min(key) < low:
                    continue
                sign = signs[driven.masks[key]]
                acc: dict = {}  # the other side's key -> the sum of its terms
                items, walk = driven.values[key].items(), partners
                if fold and len(items) > 1:
                    sums: dict = {}  # j -> v_j
                    for i, c in items:
                        for j, row in partners[i]:
                            sums[j] = sums.get(j, 0) + c * row
                    items, walk = ((0, 1),), (list(sums.items()),)  # 1 * each v_j
                for i, c in items:
                    for j, row in walk[i]:
                        for okey, d, oleast, omask in support[j]:
                            if oleast < low:
                                break
                            acc[okey] = acc.get(okey, 0) + sign[omask] * c * d * row
                for okey, v in acc.items():
                    full = rekey(key + okey)
                    out[full] = out.get(full, 0) + v
        return {key: v for key, v in out.items() if v}


# _ROTATION_SIGNS[m][s]: C at the rotation idx[s:] + idx[:s] over C at idx, for a
# quadruple idx whose bit v of the parity mask m is the parity of idx[v]
_ROTATION_SIGNS = tuple(tuple(_koszul(tuple(range(s, 4)) + tuple(range(s)),
                                      {v: m >> v & 1 for v in range(4)}) for s in range(4))
                        for m in range(16))


def _check(A: Superalgebra, identity: str, witness_limit: int) -> ViolationReport:
    """Evaluate each walk one block of its first index at a time; the
    witnesses are the failing tuples in lexicographic order, and in a walk
    of several components, component q witnesses ``(q,) + idx`` after the
    components before it at the same tuple.

    The Malcev quadruples are walked one rotation orbit at a time: block a
    joins the summands ``per_orbit`` only at the quadruples with no index
    below a, and hands each value at a least rotation on to the blocks of
    its later rotations (see ``check_malcev``)."""
    col = _WitnessCollector(identity, witness_limit)
    walks = _IDENTITIES[identity]
    ev = _Evaluator(A, [expr for walk in walks for expr in walk])
    n = A.space.dim
    room = True
    for w, components in enumerate(walks):
        degree = len(_leaves(components[0]))
        scale = ev.D ** (degree - 1)  # each term multiplies degree - 1 rows
        plans = [ev.plan(expr) for expr in components]
        # the summands joined once per rotation orbit: on the Malcev quadruples
        # all five once the anticommutativity walk has found no violation,
        # else C, the last four; on any other walk none
        cut, per_orbit = 1 if col.count else 0, []
        if identity == "malcev" and w == 1:
            plans, per_orbit = [plans[0][:cut]], plans[0][cut:]
        col.tally(n ** degree if w == len(walks) - 1 else 0, 0)
        later = [{} for _ in range(n)]  # block -> the signed values handed on to it
        for a in range(n):
            values = ev.block(per_orbit, a, a)
            held, later[a] = later[a], {}
            held.update(values)
            # only a walk of one component is handed values
            found = [(key, q, vec) for q, plan in enumerate(plans)
                     for key, vec in ev.block(plan, a, 0, {} if q else held).items()]
            for key, q, vec in sorted(found) if room else ():
                room = col.add((q,) + key if len(plans) > 1 else key, lambda: vector_from_sparse(
                    A.space, unscaled(unpack(vec, ev.width), scale)), failures=0)
                if not room:
                    break
            past = 0  # later rotations counted here, past the last witness
            for key, vec in values.items():
                # the distinct later rotations; two shifts that give one rotation
                # have equal signs wherever the value is nonzero, by C's symmetry
                rots = {key[s:] + key[:s]: s for s in (1, 2, 3)}
                if min(rots) < key:
                    continue
                signs = _ROTATION_SIGNS[sum(map(operator.getitem, ev.bits, key))]
                for r, s in rots.items():
                    if r[0] != a and (cut or room):  # handed on, signed, to its block
                        later[r[0]][r] = signs[s] * vec
                    elif r[0] != a:
                        past += 1
            col.tally(0, len(found) + past)
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

    The quadruples are checked one rotation orbit at a time.  The cyclic
    part C, the four rotations of ((xy)z)t, and (xz)(yt) too once the
    product has passed graded anticommutativity, are evaluated by block a
    of the first index only at the quadruples with no index below a, which
    hold the least rotation of each orbit.  Each nonzero value at a least
    rotation is handed on to the blocks of its later rotations, times the
    signs (-1)^{|x|(|y|+|z|+|t|)} of the rotations between them: always if
    only C is evaluated that way, and otherwise while there is witness
    room, after which the later rotations are counted where their least
    rotation is.  If (xz)(yt) is not among them, block a adds it at every
    quadruple whose first index is a.  ``checked_tuples`` is n^4 and the
    report is that of a walk over every quadruple.
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
    ``checked_tuples`` counts basis triples.  A missing ``prec`` or ``succ``
    product raises KeyError before any work.
    """
    return _check(A, "pre-alternative", witness_limit)


# -- functors ------------------------------------------------------------


def _derived(A: Superalgebra, expr) -> Superalgebra:
    """The single-product algebra whose x.y is ``expr`` at (x, y) = (X, Y)."""
    ev = _Evaluator(A, [expr])
    return Superalgebra._from_rows(A.space, {"mul": {
        key: unscaled(vec, ev.D) for key, vec in ev.table(expr).values.items()}})


def commutator_superalgebra(A: Superalgebra) -> Superalgebra:
    """[x,y] = x*y - (-1)^{|x||y|} y*x, as a new single-product algebra."""
    return _derived(A, _br(X, Y))


def sum_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x*y = x prec y + x succ y collapses (prec, succ) to one product."""
    return _derived(A, _star(X, Y))


def pre_malcev_from_pre_alternative(A: Superalgebra) -> Superalgebra:
    """x.y = x succ y - (-1)^{|x||y|} y prec x."""
    return _derived(A, ((1, ("succ", X, Y)), (-1, ("prec", Y, X))))
