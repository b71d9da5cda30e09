"""Super O-operators, Rota-Baxter operators, bilinear forms, and the
constructions that turn them into pre-Malcev / pre-alternative structures.

An O-operator candidate is just an even graded linear map T : V -> A
together with its context; there is no wrapper type.  Every context is an
action of A on V: a Malcev representation, an alternative bimodule, or A
acting on itself (a Rota-Baxter operator is an O-operator for that action).
One engine serves them all: the residual

    m(T a, T b) - T(left(T a) b + s(a, b) right(T b) a)

on basis pairs of V, and the induced product x.y = action(T x) y, are each
written once.  Checkers, grid searches and constructions share them.  The
sign s(a, b) depends only on whether a and b are both odd, so a context
carries it as one pair of factors.  The engine reads every action, and the
operator itself, as sparse columns, with the sparse helpers of ``_kernel``
that the module checkers use too; A acting on itself is read straight off
the sparse rows of the algebra's ``mul``, and A acting on its dual by the
coadjoint action is the signed transpose of that left multiplication
(``reps._dual_columns``, as for every dual action).  A residual
reads only the part of the action that the operator's image K reaches: the
rows (p, q) with p and q in K and the left and right columns of K.  A
checker cuts the context to that part and scales it, with the operator's
columns, by their common denominator D, so each residual is D^3 times the
rational one; a search does the same for the image of its ``support``.  The
form layer reads a form's stored entries, and one sparse table of
w(b_i, b_j b_k) off the nonzero rows of ``mul``; nondegeneracy, and the one
inverse of w^T for the compatible product, reduce the form's sparse rows.

A grid search returns exactly the candidates its checker accepts, in grid
order: the first ``support`` entry varies slowest, and each entry takes its
values in the order of ``values``.  It does not try every candidate: each
component of the residual is an exact quadratic form in the ``support``
entries, read off the residual by polarization and computed in integers
(D times the rational form), and a depth-first search assigns the entries
in order with forward checking.
Once a form's entries are all assigned but its last, the values left for
that last entry are cut to those where the form vanishes, and a partial
assignment that leaves an entry no value is pruned.  Every ``support``
entry must be parity-0 (``ParityViolation`` before any candidate is
tried), and ``limit`` caps the number of results.

A checker raises ``DimensionMismatch`` when the (even, odd) dimensions of
the operator's domain and codomain are not those of V and A, or those of a
form's space not those of A.  A construction runs its check once, at the
default witness limit, and raises ``IdentityViolation`` carrying that report
instead of returning a broken algebra; otherwise it builds from what the
check built: the context's action columns, or for a symplectic form the
table of w(b_i, b_j b_k) and the elimination that decided nondegeneracy.
Its rows go to ``Superalgebra._from_rows`` unchecked: the sparse helpers
and the elimination compute them from stored ``Fraction``s and drop every
coefficient that cancels, so no coefficient and no row is zero, and the
operator or form and every action are even, so each entry has the parity
of its row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import _linalg
from ._kernel import (
    EMPTY,
    Columns,
    Number,
    Rows,
    Vector,
    act,
    add_scaled,
    apply,
    denominator,
    mul,
    scaled,
    scaled_columns,
    scaled_rows,
    unscaled,
)
from ._linalg import ZERO
from .graded import (
    DimensionMismatch,
    GradedLinearMap,
    ParityViolation,
    SuperSpace,
    Tensor2,
    _shape,
    _sparse_columns,
    koszul_sign,
    vector_from_sparse,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
)
from .reps import (
    Bimodule,
    Representation,
    _columns,
    _dual_columns,
    _multiplication_columns,
)


class IdentityViolation(Exception):
    """A construction's precondition failed; carries the failing report."""

    def __init__(self, report: ViolationReport):
        self.report = report
        super().__init__(
            f"{report.identity}: {report.violation_count} violation(s) over "
            f"{report.checked_tuples} tuples"
        )


# -- the O-operator engine ------------------------------------------------

@dataclass(frozen=True)
class _Context:
    """The action an O-operator T : V -> A is taken against."""

    identity: str
    algebra: Superalgebra
    rows: Rows  # the structure constants of the product m
    module: SuperSpace
    left: Columns
    right: Columns
    signs: tuple[int, int]  # the right term's factor: a, b not both odd; both odd


def _rep_context(R: Representation) -> _Context:
    cols = _columns(R.action)
    return _Context("o-operator", R.algebra, R.algebra.rows(), R.space, cols, cols, (-1, 1))


def _bimodule_context(B: Bimodule) -> _Context:
    return _Context("o-operator-alternative", B.algebra, B.algebra.rows(), B.space,
                    _columns(B.left), _columns(B.right), (1, 1))


def _rota_baxter_context(A: Superalgebra, sign_variant: bool) -> _Context:
    """A acting on itself: left(x) y = x y and right(x) y = y x."""
    return _Context(
        "rota-baxter-signed" if sign_variant else "rota-baxter", A, A.rows(), A.space,
        _multiplication_columns(A), _multiplication_columns(A, right=True),
        (1, -1) if sign_variant else (1, 1),
    )


def _coadjoint_context(A: Superalgebra) -> _Context:
    """A acting on its dual by the coadjoint action, the signed transpose of
    left multiplication; its O-operators are the r-maps of the operator form
    of the MYBE."""
    coad = _dual_columns(_multiplication_columns(A), A.space, A.space)
    return _Context("operator-form", A, A.rows(), A.space.dual(), coad, coad, (-1, 1))


def _residuals(ctx: _Context, T: Sequence[Vector]) -> Iterator[tuple[int, int, Vector]]:
    """(a, b, residual) over the basis pairs of V with T(a) or T(b) nonzero,
    in lexicographic order; ``T`` holds the sparse columns of the operator.
    Every term reads T(a) or T(b), so the pairs left out, whose two columns
    are zero, have an empty residual and are never visited."""
    par = ctx.module.parities()
    everywhere, nonzero = range(len(par)), [b for b, column in enumerate(T) if column]
    for a in everywhere:
        for b in everywhere if T[a] else nonzero:
            res = mul(ctx.rows, T[a], T[b])
            inner = act(ctx.left, T[a], b)
            add_scaled(inner, act(ctx.right, T[b], a), ctx.signs[par[a] & par[b]])
            if inner:
                add_scaled(res, apply(T, inner), -1)
            yield a, b, res


def _scaled_to_image(ctx: _Context, image: set[int],
                     extra: Sequence[Vector] = ()) -> tuple[_Context, list, int]:
    """``ctx`` cut to what ``_residuals`` reads of an operator whose columns
    lie in the span of the ``image`` basis vectors of A: the rows (p, q) with
    p and q in the image, and the left and right columns of the image (``()``
    elsewhere, so a read outside it fails).  Those and the vectors ``extra``
    are scaled to ``int`` by their common denominator D; returns the cut
    context, the scaled ``extra`` and D."""
    rows = {key: row for key, row in ctx.rows.items() if key[0] in image and key[1] in image}
    left, right = (tuple(cols if k in image else () for k, cols in enumerate(columns))
                   for columns in (ctx.left, ctx.right))
    D = denominator(rows.values(), extra, *left, *right)
    left = scaled_columns(left, D)
    # the representation and coadjoint contexts act by one set of columns
    right = left if ctx.right is ctx.left else scaled_columns(right, D)
    return (replace(ctx, rows=scaled_rows(rows, D), left=left, right=right),
            [scaled(v, D) for v in extra], D)


def _induced_product(columns: Columns, T: Sequence[Vector]) -> dict[tuple[int, int], dict]:
    """The nonzero rows of x.y = action(T x) y on V, keyed (i, j) as
    ``Superalgebra`` stores them; ``T`` holds the sparse columns of the
    operator."""
    return {(i, j): row for i, j in itertools.product(range(len(T)), repeat=2)
            if (row := act(columns, T[i], j))}


def _compatible_structure(ctx: _Context, T: GradedLinearMap, singular: str) -> Superalgebra:
    """x.y = T(left(x) T^{-1} y) on A, for T : V -> A checked on ``ctx``;
    ``ValueError(singular)`` unless T is invertible (one elimination of T)."""
    try:
        tinv = T.inverse().columns
    except ValueError:
        raise ValueError(singular) from None
    A = ctx.algebra
    return Superalgebra._from_rows(A.space, {"mul": {
        (i, j): row for i, j in itertools.product(range(A.space.dim), repeat=2)
        if (row := apply(T.columns, apply(ctx.left[i], tinv[j])))}})


def _check_shape(identity: str, T: GradedLinearMap, module: SuperSpace,
                 algebra: SuperSpace) -> None:
    """``DimensionMismatch`` unless T is (even, odd)-shaped module -> algebra."""
    got, want = (_shape(T.domain), _shape(T.codomain)), (_shape(module), _shape(algebra))
    if got != want:
        raise DimensionMismatch(f"{identity}: operator has (even, odd) dimensions "
                                f"{got[0]} -> {got[1]}, expected {want[0]} -> {want[1]}")


def _check(ctx: _Context, T: GradedLinearMap, witness_limit: int) -> ViolationReport:
    _check_shape(ctx.identity, T, ctx.module, ctx.algebra.space)
    if T.parity != 0:
        col = _WitnessCollector(ctx.identity, witness_limit)
        col.preconditions.append("operator candidate is not even")
        return col.report()
    return _walk(ctx, T.columns, witness_limit)


def _walk(ctx: _Context, T: Sequence[Vector], witness_limit: int) -> ViolationReport:
    """The report of ``_check`` for an even operator, V -> A, with the sparse
    columns ``T``: the residual walk, past the guard on a public map."""
    col = _WitnessCollector(ctx.identity, witness_limit)
    image = {k for column in T for k in column}
    scaled_ctx, columns, D = _scaled_to_image(ctx, image, T)
    space, scale = ctx.algebra.space, D ** 3
    col.tally(ctx.module.dim ** 2, 0)
    for a, b, res in _residuals(scaled_ctx, columns):
        if res:
            col.add((a, b), lambda: vector_from_sparse(space, unscaled(res, scale)))
    return col.report()


def _require(report: ViolationReport) -> None:
    """Raise ``IdentityViolation`` with ``report`` unless it passes."""
    if not report.ok:
        raise IdentityViolation(report)


def _checked(ctx: _Context, T: GradedLinearMap) -> _Context:
    """``ctx``, once ``T`` passes its check there at the default witness limit."""
    _require(_check(ctx, T, DEFAULT_WITNESS_LIMIT))
    return ctx


def check_o_operator_malcev(T: GradedLinearMap, R: Representation,
                            witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """[T(a), T(b)] = T(rho(T(a))b - (-1)^{|a||b|} rho(T(b))a) on basis pairs of V."""
    return _check(_rep_context(R), T, witness_limit)


def check_o_operator_alternative(T: GradedLinearMap, B: Bimodule,
                                 witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """T(a) * T(b) = T(l(T(a))b + r(T(b))a) on basis pairs of V."""
    return _check(_bimodule_context(B), T, witness_limit)


def check_rota_baxter(Rop: GradedLinearMap, A: Superalgebra, sign_variant: bool = False,
                      witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Weight-zero Rota-Baxter identity on basis pairs.

    Default: [Rx, Ry] = R([Rx, y] + [x, Ry]), the adjoint specialization of
    the O-operator identity.  With ``sign_variant`` the second summand
    carries the Koszul factor (-1)^{|x||y|}; the two variants differ only
    when both arguments are odd.
    """
    return _check(_rota_baxter_context(A, sign_variant), Rop, witness_limit)


# -- constructions into pre-Malcev / pre-alternative ---------------------


def pre_malcev_from_o_operator(T: GradedLinearMap, R: Representation) -> Superalgebra:
    """a.b = rho(T(a))b on V; requires T to be a super O-operator."""
    ctx = _checked(_rep_context(R), T)
    return Superalgebra._from_rows(R.space, {"mul": _induced_product(ctx.left, T.columns)})


@dataclass(frozen=True)
class ImageStructure:
    """Pre-Malcev structure induced on T(V) inside A.

    ``embedding`` sends the image basis into A; the image algebra's product
    is T(a).T(b) = T(a.b) for any preimages a, b.  It is well defined by the
    O-operator identity: for k with T(k) = 0,
    T(a.k) = T(rho(T(a))k) = [T(a), T(k)] = 0, and k.a = rho(T(k))a = 0.
    """

    algebra: Superalgebra
    embedding: GradedLinearMap
    preimage_indices: tuple[int, ...]


def induced_structure_on_image(T: GradedLinearMap, R: Representation) -> ImageStructure:
    """Push the O-operator product forward to T(V); the O-operator identity,
    checked first, makes it well defined even when T is rank-deficient."""
    product = pre_malcev_from_o_operator(T, R)  # validates the precondition
    n = R.space.dim
    reduced, pivots = _linalg.rref(_sparse_columns(
        {(j, i): x for j, column in enumerate(T.columns) for i, x in column.items()},
        T.codomain.dim), n)

    # homogeneous image basis: the pivot columns of T, the even ones first
    # as in V.  T = C R, with C the pivot columns and R the nonzero rows of
    # rref(T), so T(v) has the coordinates R v in that basis.
    even = sum(1 for p in pivots if R.space.parity(p) == 0)
    image_space = SuperSpace(even, len(pivots) - even, tuple(f"t{p + 1}" for p in pivots))
    coord_columns = _sparse_columns(
        {(k, j): x for k, row in enumerate(reduced) for j, x in row.items()}, n)
    rows = product.rows()
    algebra = Superalgebra._from_rows(image_space, {"mul": {
        (a, b): row for (a, pa), (b, pb) in itertools.product(enumerate(pivots), repeat=2)
        if (row := apply(coord_columns, rows.get((pa, pb), EMPTY)))}})
    embedding = GradedLinearMap._from_columns(image_space, R.algebra.space,
                                              [T.columns[p] for p in pivots])
    return ImageStructure(algebra, embedding, pivots)


def compatible_pre_malcev_from_invertible_oop(T: GradedLinearMap,
                                              R: Representation) -> Superalgebra:
    """x.y = T(rho(x) T^{-1}(y)) on A itself; requires invertible T."""
    return _compatible_structure(_checked(_rep_context(R), T), T,
                                 "singular operator: no compatible structure")


def pre_malcev_from_rota_baxter(Rop: GradedLinearMap, A: Superalgebra) -> Superalgebra:
    """x.y = [R(x), y]; requires the (default-variant) Rota-Baxter identity."""
    ctx = _checked(_rota_baxter_context(A, False), Rop)
    return Superalgebra._from_rows(A.space, {"mul": _induced_product(ctx.left, Rop.columns)})


def pre_malcev_from_invertible_rota_baxter(Rop: GradedLinearMap,
                                           A: Superalgebra) -> Superalgebra:
    """The compatible structure x.y = R([x, R^{-1}(y)]) for invertible R."""
    return _compatible_structure(_checked(_rota_baxter_context(A, False), Rop), Rop,
                                 "singular Rota-Baxter operator")


def pre_alternative_from_o_operator(T: GradedLinearMap, B: Bimodule) -> Superalgebra:
    """a succ b = l(T(a))b, a prec b = r(T(b))a on V."""
    ctx = _checked(_bimodule_context(B), T)
    prec = {(i, j): row for (j, i), row in _induced_product(ctx.right, T.columns).items()}
    return Superalgebra._from_rows(B.space, {"prec": prec,
                                             "succ": _induced_product(ctx.left, T.columns)})


# -- bilinear forms -------------------------------------------------------


class BilinearForm(Tensor2):
    """A bilinear form w, an even element of A* (x) A*: the parity-0 ``Tensor2``
    of its values w(b_i, b_j), whose ``matrix`` w[i][j] is rebuilt on each read."""

    _nouns = ("form matrix", "form entry")
    matrix = Tensor2.coeffs

    def __new__(cls, space: SuperSpace, matrix: _linalg.Matrix):
        return super().__new__(cls, space, matrix)

    def __repr__(self):
        return f"BilinearForm(space={self.space!r}, matrix={self.matrix!r})"


@dataclass(frozen=True)
class FormFlags:
    supersymmetric: bool
    skew_supersymmetric: bool
    nondegenerate: bool
    invariant: bool


def _paired_with_products(w: dict[tuple[int, int], Fraction], n: int,
                          rows: Rows) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero values of w(b_i, b_j b_k), keyed (i, j, k), for the n x n
    form with the nonzero entries ``w``: its columns applied to each nonzero
    row (j, k)."""
    columns = _sparse_columns(w, n)
    return {(i, j, k): c for (j, k), row in rows.items() for i, c in apply(columns, row).items()}


def _check_form_shape(omega: BilinearForm, A: Superalgebra) -> None:
    if _shape(omega.space) != _shape(A.space):
        raise DimensionMismatch(f"form has (even, odd) dimensions {_shape(omega.space)}, "
                                f"the algebra {_shape(A.space)}")


def _nondegenerate(w: dict[tuple[int, int], Fraction], n: int) -> bool:
    # rank n, read off the rows of w^T: the columns of w
    return len(_linalg.rref(_sparse_columns(w, n), n)[1]) == n


def classify_form(omega: BilinearForm, A: Superalgebra) -> FormFlags:
    """Exact flags: (skew-)supersymmetry, nondegeneracy, invariance.  Raises
    ``DimensionMismatch`` unless the form's (even, odd) dimensions are A's."""
    _check_form_shape(omega, A)
    n, w, rows = A.space.dim, omega._entries, A.rows()
    transposed = {(j, i): x for (i, j), x in w.items()}
    return FormFlags(
        omega.is_supersymmetric(),
        omega.is_skew_supersymmetric(),
        _nondegenerate(w, n),
        # w(b_i b_j, b_k) = w^T(b_k, b_i b_j) equals w(b_i, b_j b_k)
        {(i, j, k): c for (k, i, j), c in _paired_with_products(transposed, n, rows).items()}
        == _paired_with_products(w, n, rows),
    )


def _symplectic(omega: BilinearForm, A: Superalgebra, nondegenerate: bool,
                witness_limit: int) -> tuple[ViolationReport, dict]:
    """The report of ``check_symplectic``, given whether w is nondegenerate,
    and the table of w(b_i, b_j b_k) it read."""
    col = _WitnessCollector("symplectic", witness_limit)
    par, sums = A.space.parities(), {}
    if not omega.is_skew_supersymmetric():
        col.preconditions.append("form is not skew-supersymmetric")
    if not nondegenerate:
        col.preconditions.append("form is degenerate")
    table = _paired_with_products(omega._entries, A.space.dim, A.rows())
    for (i, j, k), c in table.items():
        for key in ((i, j, k), (k, i, j), (j, k, i)):  # one key when i = j = k
            sums[key] = sums.get(key, ZERO) + koszul_sign(par[i], par[k]) * c
    col.tally(A.space.dim ** 3, 0)
    for key in sorted(key for key, total in sums.items() if total):
        col.add(key, lambda: sums[key])
    return col.report(), table


def check_symplectic(omega: BilinearForm, A: Superalgebra,
                     witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Super two-cocycle condition: the cyclic graded sum
    (-1)^{|x||z|} w(x,[y,z]) + (-1)^{|y||x|} w(y,[z,x]) + (-1)^{|z||y|} w(z,[x,y])
    vanishes on all homogeneous basis triples; a nonzero w(b_i, b_j b_k)
    enters the sums at (i, j, k), (k, i, j) and (j, k, i) alone.
    Preconditions (skew-supersymmetric, nondegenerate) are reported as flag
    failures rather than witnesses.  Witness leftovers are scalars.
    """
    _check_form_shape(omega, A)
    return _symplectic(omega, A, _nondegenerate(omega._entries, A.space.dim), witness_limit)[0]


def pre_malcev_from_symplectic(omega: BilinearForm, A: Superalgebra) -> Superalgebra:
    """The compatible product defined by w(x.y, z) = (-1)^{|x|(|y|+|z|)} w(y, [z, x]):
    the row of (i, j) is (w^T)^{-1}, whose columns are the rows of w^{-1},
    applied to rhs_z = sign * w(b_j, b_z b_i).  Inverting w is the one
    elimination, and decides nondegeneracy for the check, whose table of
    w(b_i, b_j b_k) gives the right-hand sides."""
    _check_form_shape(omega, A)
    n = A.space.dim
    try:  # w's rows are the columns of w^T, so these are those of (w^T)^{-1}
        inverse_t = _linalg.invert(_sparse_columns(
            {(j, i): x for (i, j), x in omega._entries.items()}, n), n)
    except ValueError:  # singular
        inverse_t = None
    report, table = _symplectic(omega, A, inverse_t is not None, DEFAULT_WITNESS_LIMIT)
    _require(report)
    par, rhs = A.space.parities(), {}
    for (j, z, i), c in table.items():
        rhs.setdefault((i, j), {})[z] = koszul_sign(par[i], par[j] + par[z]) * c
    return Superalgebra._from_rows(A.space, {"mul": {
        key: row for key, v in rhs.items() if (row := apply(inverse_t, v))}})


# -- grid search (test/example utility, not a stability guarantee) --------


# A quadratic form {(e1, e2): coefficient}, e1 <= e2, in the values of the
# support entries e1 and e2; zero coefficients are dropped.
_Form = dict[tuple[int, int], Number]


def _residual_forms(ctx: _Context,
                    support: Sequence[tuple[int, int]]) -> dict[tuple[int, int, int], _Form]:
    """Component m of the residual on the basis pair (a, b), keyed (a, b, m),
    as an exact quadratic form in the values of the ``support`` entries.

    The forms are read off ``_residuals`` by polarization: the residual is
    a homogeneous quadratic in the entries of T, so with E_e the operator
    whose only nonzero entry is a 1 at entry e, the coefficient of x_e^2 is
    the residual of E_e, and that of x_e x_f is the residual of E_e + E_f
    less those of E_e and E_f.  A repeated entry is read at its last
    occurrence, the one that sets the operator's value.  The coefficients
    are those of ``ctx``: ``int`` on a context scaled by D, and then D times
    the rational ones.  Components that vanish identically are left out."""
    variables = sorted({entry: e for e, entry in enumerate(support)}.values())

    def residual(*es: int) -> dict[tuple[int, int, int], Number]:
        T: list[dict] = [{} for _ in range(ctx.module.dim)]
        for e in es:
            i, j = support[e]
            T[j][i] = 1
        return {(a, b, m): c for a, b, res in _residuals(ctx, T) for m, c in res.items()}

    squares = {e: residual(e) for e in variables}
    forms: dict[tuple[int, int, int], _Form] = {}
    for e, f in itertools.combinations_with_replacement(variables, 2):
        coefficients = squares[e]
        if e != f:
            coefficients = residual(e, f)
            add_scaled(coefficients, squares[e], -1)
            add_scaled(coefficients, squares[f], -1)
        for key, c in coefficients.items():
            forms.setdefault(key, {})[(e, f)] = c
    return forms


def _search(ctx: _Context, values: Iterable[int],
            support: Sequence[tuple[int, int]] | None,
            limit: int | None) -> list[GradedLinearMap]:
    """Every even matrix T : V -> A with entries drawn from ``values`` on
    ``support`` whose residual vanishes on all basis pairs, in grid order,
    at most ``limit`` of them.

    The forms are computed in integers, on the context cut to the rows and
    columns the support's image reaches and scaled by their common
    denominator D (``_scaled_to_image``), so each is D times the rational
    form.  The values are scaled by the lcm L of their denominators, which
    multiplies each form by L^2.  Neither factor moves a zero set.  Once a
    form's entries are all assigned but its last, it is a x^2 + b x + c in
    that last entry, and it cuts the entry's domain to its roots; an empty
    domain prunes.  A cut drops only values the form rejects, so no
    hit is lost and the grid order stays."""
    A, V = ctx.algebra.space, ctx.module
    if support is None:
        support = tuple((i, j) for i in range(A.dim) for j in range(V.dim)
                        if A.parity(i) == V.parity(j))
    for i, j in support:
        if A.parity(i) != V.parity(j):
            raise ParityViolation(f"support entry ({i}, {j}) is not parity-0")

    def hits() -> Iterator[GradedLinearMap]:
        vals = [Fraction(v) for v in values]
        L = math.lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (L // v.denominator) for v in vals]
        value_of = dict(zip(ints, vals))
        n = len(support)
        domains = [ints] * n
        cuts: list[list] = [[] for _ in range(n)]  # by the second-to-last entry read
        scaled_ctx = _scaled_to_image(ctx, {i for i, _ in support})[0]
        for form in _residual_forms(scaled_ctx, support).values():
            last = max(e2 for _, e2 in form)
            linear = [(e1, c) for (e1, e2), c in form.items() if e2 == last != e1]
            rest = [(e1, e2, c) for (e1, e2), c in form.items() if e2 != last]
            before = [e1 for e1, _ in linear] + [e2 for _, e2, _ in rest]
            if before:
                cuts[max(before)].append((last, form.get((last, last), 0), linear, rest))
            else:  # a x^2 vanishes at x = 0 alone
                domains[last] = [v for v in domains[last] if not v]
        x = [0] * n

        def assign(d: int) -> Iterator[GradedLinearMap]:
            """The hits that extend x[:d]: x[d] takes, in turn, each value
            of its domain at which the cuts due at d leave no domain empty;
            the cuts are undone before the next value."""
            if d == n:
                value = {entry: value_of[v] for entry, v in zip(support, x)}
                yield GradedLinearMap._from_columns(
                    V, A, _sparse_columns({e: c for e, c in value.items() if c}, V.dim))
                return
            for v in domains[d]:
                x[d] = v
                undo = []
                for last, a, linear, rest in cuts[d]:
                    b = sum(c * x[e] for e, c in linear)
                    c0 = sum(c * x[e1] * x[e2] for e1, e2, c in rest)
                    undo.append((last, domains[last]))
                    domains[last] = [u for u in domains[last] if (a * u + b) * u + c0 == 0]
                    if not domains[last]:
                        break
                else:
                    yield from assign(d + 1)
                for last, domain in reversed(undo):
                    domains[last] = domain

        yield from assign(0)

    return list(itertools.islice(hits(), limit))


def search_rota_baxter(A: Superalgebra, values: Iterable[int] = range(-2, 3),
                       support: Sequence[tuple[int, int]] | None = None,
                       limit: int | None = None) -> list[GradedLinearMap]:
    """All even integer-matrix Rota-Baxter operators with entries drawn from
    ``values`` on the given support (default: every parity-0 position)."""
    return _search(_rota_baxter_context(A, False), values, support, limit)


def search_o_operators_malcev(R: Representation,
                              values: Iterable[int] = range(-2, 3),
                              support: Sequence[tuple[int, int]] | None = None,
                              limit: int | None = None) -> list[GradedLinearMap]:
    """All even integer-matrix O-operators V -> A for the representation R."""
    return _search(_rep_context(R), values, support, limit)


def search_o_operators_alternative(B: Bimodule,
                                   values: Iterable[int] = range(-2, 3),
                                   support: Sequence[tuple[int, int]] | None = None,
                                   limit: int | None = None) -> list[GradedLinearMap]:
    """All even integer-matrix O-operators V -> A for the bimodule B."""
    return _search(_bimodule_context(B), values, support, limit)
