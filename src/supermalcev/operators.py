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
engine reads every action, and the operator itself, as sparse columns, with
the sparse helpers of ``_kernel`` that the module checkers use too; A
acting on itself, and A acting on its dual by the coadjoint action, are
read straight off the algebra's sparse rows.  A checker scales the rows,
the action columns and the operator's columns by their common denominator
D, so each residual is D^3 times the rational one.

A grid search returns exactly the candidates its checker accepts, in
lexicographic order of the entry tuples.  It does not try every candidate:
each component of the residual is compiled once into an exact quadratic
form in the ``support`` entries, and a depth-first search assigns the
entries in order, pruning a partial assignment as soon as a form whose
entries are all assigned is nonzero.  Every ``support`` entry must be
parity-0 (``ParityViolation`` before any candidate is tried), and ``limit``
caps the number of results.

A checker raises ``DimensionMismatch`` when the (even, odd) dimensions of
the operator's domain and codomain are not those of V and A.  Constructions
validate their precondition and raise ``IdentityViolation`` carrying the
offending report instead of returning a broken algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import _linalg
from ._kernel import (
    EMPTY,
    Rows,
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
from ._linalg import ONE, ZERO
from .graded import (
    DimensionMismatch,
    GradedLinearMap,
    GradedVector,
    ParityViolation,
    SuperSpace,
    koszul_sign,
    vector_from_sparse,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Sparse,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
)
from .reps import (
    Bimodule,
    Representation,
    _adjoint_columns,
    _columns,
    _Columns,
    _dual_columns,
    _sparse_columns,
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
    left: _Columns
    right: _Columns
    signs: tuple[tuple[int, ...], ...]  # factor of the right term on (a, b)


def _signs(space: SuperSpace, sign) -> tuple[tuple[int, ...], ...]:
    par = space.parities()
    return tuple(tuple(sign(p, q) for q in par) for p in par)


def _rep_signs(space: SuperSpace) -> tuple[tuple[int, ...], ...]:
    return _signs(space, lambda p, q: -koszul_sign(p, q))


def _rep_context(R: Representation) -> _Context:
    cols = _columns(R.action)
    return _Context("o-operator", R.algebra, R.algebra.rows(), R.space, cols, cols,
                    _rep_signs(R.space))


def _bimodule_context(B: Bimodule) -> _Context:
    return _Context("o-operator-alternative", B.algebra, B.algebra.rows(), B.space,
                    _columns(B.left), _columns(B.right),
                    _signs(B.space, lambda p, q: 1))


def _rota_baxter_context(A: Superalgebra, sign_variant: bool, product: str) -> _Context:
    """A acting on itself: left(x) y = x y and right(x) y = y x."""
    n = A.space.dim
    rows = A.rows(product)
    return _Context(
        "rota-baxter-signed" if sign_variant else "rota-baxter", A, rows, A.space,
        _adjoint_columns(A, product),
        tuple(tuple(rows.get((j, k), EMPTY) for j in range(n)) for k in range(n)),
        _signs(A.space, koszul_sign if sign_variant else lambda p, q: 1),
    )


def _coadjoint_context(A: Superalgebra, product: str) -> _Context:
    """A acting on its dual by the coadjoint action, read off the rows."""
    coad = _dual_columns(_adjoint_columns(A, product), A.space, A.space)
    dual = A.space.dual()
    return _Context("o-operator", A, A.rows(product), dual, coad, coad, _rep_signs(dual))


def _residuals(ctx: _Context, T: Sequence[Sparse]) -> Iterator[tuple[int, int, Sparse]]:
    """(a, b, residual) over basis pairs of V in lexicographic order; ``T``
    holds the sparse columns of the operator."""
    n = ctx.module.dim
    for a, b in itertools.product(range(n), repeat=2):
        res = mul(ctx.rows, T[a], T[b])
        inner = act(ctx.left, T[a], b)
        add_scaled(inner, act(ctx.right, T[b], a), ctx.signs[a][b])
        for k, c in inner.items():
            add_scaled(res, T[k], -c)
        yield a, b, res


def _induced_product(columns: _Columns,
                     T: GradedLinearMap) -> dict[tuple[int, int, int], Fraction]:
    """Structure constants of x.y = action(T x) y on V."""
    n = T.domain.dim
    cols = _sparse_columns(T.matrix, n)
    return {
        (i, j, k): c
        for i, j in itertools.product(range(n), repeat=2)
        for k, c in act(columns, cols[i], j).items()
    }


def _compatible_structure(A: Superalgebra, columns: _Columns,
                          T: GradedLinearMap) -> Superalgebra:
    """x.y = T(action(x) T^{-1} y) on A, for an invertible T : V -> A."""
    n = A.space.dim
    tcols = _sparse_columns(T.matrix, T.domain.dim)
    tinv = _sparse_columns(T.inverse().matrix, n)
    return Superalgebra.from_entries(A.space, {"mul": {
        (i, j, k): c
        for i, j in itertools.product(range(n), repeat=2)
        for k, c in apply(tcols, apply(columns[i], tinv[j])).items()
    }})


def _shape(space: SuperSpace) -> tuple[int, int]:
    return space.even_dim, space.odd_dim


def _check(ctx: _Context, T: GradedLinearMap, witness_limit: int) -> ViolationReport:
    got = _shape(T.domain), _shape(T.codomain)
    want = _shape(ctx.module), _shape(ctx.algebra.space)
    if got != want:
        raise DimensionMismatch(f"{ctx.identity}: operator has (even, odd) dimensions "
                                f"{got[0]} -> {got[1]}, expected {want[0]} -> {want[1]}")
    col = _WitnessCollector(ctx.identity, witness_limit)
    if T.parity != 0:
        col.preconditions.append("operator candidate is not even")
        return col.report()
    tcols = _sparse_columns(T.matrix, ctx.module.dim)
    D = denominator(ctx.rows.values(), tcols, *ctx.left, *ctx.right)
    scaled_ctx = replace(ctx, rows=scaled_rows(ctx.rows, D), left=scaled_columns(ctx.left, D),
                         right=scaled_columns(ctx.right, D))
    space, scale = ctx.algebra.space, D ** 3
    for a, b, res in _residuals(scaled_ctx, [scaled(v, D) for v in tcols]):
        col.tick()
        if res:
            col.add((a, b), lambda: vector_from_sparse(space, unscaled(res, scale)))
    return col.report()


def check_o_operator_malcev(T: GradedLinearMap, R: Representation,
                            witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """[T(a), T(b)] = T(rho(T(a))b - (-1)^{|a||b|} rho(T(b))a) on basis pairs of V."""
    return _check(_rep_context(R), T, witness_limit)


def check_o_operator_alternative(T: GradedLinearMap, B: Bimodule,
                                 witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """T(a) * T(b) = T(l(T(a))b + r(T(b))a) on basis pairs of V."""
    return _check(_bimodule_context(B), T, witness_limit)


def check_rota_baxter(Rop: GradedLinearMap, A: Superalgebra,
                      sign_variant: bool = False, product: str = "mul",
                      witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Weight-zero Rota-Baxter identity on basis pairs.

    Default: [Rx, Ry] = R([Rx, y] + [x, Ry]), the adjoint specialization of
    the O-operator identity.  With ``sign_variant`` the second summand
    carries the Koszul factor (-1)^{|x||y|}; the two variants differ only
    when both arguments are odd.
    """
    return _check(_rota_baxter_context(A, sign_variant, product), Rop, witness_limit)


# -- constructions into pre-Malcev / pre-alternative ---------------------


def pre_malcev_from_o_operator(T: GradedLinearMap, R: Representation) -> Superalgebra:
    """a.b = rho(T(a))b on V; requires T to be a super O-operator."""
    report = check_o_operator_malcev(T, R)
    if not report.ok:
        raise IdentityViolation(report)
    return Superalgebra.from_entries(
        R.space, {"mul": _induced_product(_rep_context(R).left, T)})


@dataclass(frozen=True)
class ImageStructure:
    """Pre-Malcev structure induced on T(V) inside A.

    ``embedding`` sends the image basis into A; the image algebra's product
    is T(a).T(b) = T(a.b) for any preimages a, b (well-definedness has been
    verified on kernel generators before this object is built).
    """

    algebra: Superalgebra
    embedding: GradedLinearMap
    preimage_indices: tuple[int, ...]


def induced_structure_on_image(T: GradedLinearMap, R: Representation) -> ImageStructure:
    """Push the O-operator product forward to T(V), checking first that a
    rank-deficient T still gives a well-defined product."""
    product = pre_malcev_from_o_operator(T, R)  # validates the precondition
    n = R.space.dim
    col = _WitnessCollector("image-well-defined")
    kernel = _linalg.nullspace(T.matrix, n)
    for kv in kernel:
        kv_sparse = {i: c for i, c in enumerate(kv) if c != 0}
        for j in range(n):
            col.tick()
            # a . k with T(k) = 0: T(a.k) must vanish (k.a vanishes already
            # because the product reads the algebra through T).
            prod = product.mul_sparse({j: ONE}, kv_sparse)
            res = T.apply_sparse(prod)
            if res:
                col.add((j,), lambda: vector_from_sparse(R.algebra.space, res))
    if col.count:
        raise IdentityViolation(col.report())

    # homogeneous image basis: pivot columns of T, parity block by block
    _, pivots = _linalg.rref(T.matrix)
    even_piv = tuple(p for p in pivots if R.space.parity(p) == 0)
    odd_piv = tuple(p for p in pivots if R.space.parity(p) == 1)
    ordered = even_piv + odd_piv
    image_space = SuperSpace(
        len(even_piv), len(odd_piv),
        tuple(f"t{p + 1}" for p in ordered),
    )
    cols = [tuple(T.matrix[r][p] for r in range(R.algebra.space.dim)) for p in ordered]
    if ordered:
        # coordinates inside A: solve the (tall) system  [cols] x = vector
        basis_mat = tuple(zip(*cols))
        gram = _linalg.mat_mul(_linalg.transpose(basis_mat), basis_mat)
    entries: dict[tuple[int, int, int], Fraction] = {}
    for a, pa in enumerate(ordered):
        for b, pb in enumerate(ordered):
            img = T.apply_sparse(product.mul_sparse({pa: ONE}, {pb: ONE}))
            if not img:
                continue
            vec = [ZERO] * R.algebra.space.dim
            for idx, c in img.items():
                vec[idx] = c
            rhs = _linalg.mat_vec(_linalg.transpose(basis_mat), vec)
            coords = _linalg.solve(gram, rhs)
            for k, c in enumerate(coords):
                if c != 0:
                    entries[(a, b, k)] = c
    algebra = Superalgebra.from_entries(image_space, {"mul": entries})
    embedding = GradedLinearMap(
        image_space, R.algebra.space,
        tuple(tuple(col[r] for col in cols) for r in range(R.algebra.space.dim)),
        0,
    ) if ordered else GradedLinearMap.zero(image_space, R.algebra.space)
    return ImageStructure(algebra, embedding, ordered)


def compatible_pre_malcev_from_invertible_oop(T: GradedLinearMap,
                                              R: Representation) -> Superalgebra:
    """x.y = T(rho(x) T^{-1}(y)) on A itself; requires invertible T."""
    report = check_o_operator_malcev(T, R)
    if not report.ok:
        raise IdentityViolation(report)
    if not T.is_invertible():
        raise ValueError("singular operator: no compatible structure")
    return _compatible_structure(R.algebra, _rep_context(R).left, T)


def pre_malcev_from_rota_baxter(Rop: GradedLinearMap, A: Superalgebra,
                                product: str = "mul") -> Superalgebra:
    """x.y = [R(x), y]; requires the (default-variant) Rota-Baxter identity."""
    report = check_rota_baxter(Rop, A, product=product)
    if not report.ok:
        raise IdentityViolation(report)
    return Superalgebra.from_entries(
        A.space, {"mul": _induced_product(_rota_baxter_context(A, False, product).left, Rop)})


def pre_malcev_from_invertible_rota_baxter(Rop: GradedLinearMap, A: Superalgebra,
                                           product: str = "mul") -> Superalgebra:
    """The compatible structure x.y = R([x, R^{-1}(y)]) for invertible R."""
    report = check_rota_baxter(Rop, A, product=product)
    if not report.ok:
        raise IdentityViolation(report)
    if not Rop.is_invertible():
        raise ValueError("singular Rota-Baxter operator")
    return _compatible_structure(A, _rota_baxter_context(A, False, product).left, Rop)


def pre_alternative_from_o_operator(T: GradedLinearMap, B: Bimodule) -> Superalgebra:
    """a succ b = l(T(a))b, a prec b = r(T(b))a on V."""
    report = check_o_operator_alternative(T, B)
    if not report.ok:
        raise IdentityViolation(report)
    ctx = _bimodule_context(B)
    prec = {(i, j, k): c for (j, i, k), c in _induced_product(ctx.right, T).items()}
    return Superalgebra.from_entries(B.space, {
        "prec": prec, "succ": _induced_product(ctx.left, T)})


# -- bilinear forms -------------------------------------------------------


@dataclass(frozen=True)
class BilinearForm:
    """A parity-0 bilinear form as the matrix omega[i][j] = omega(b_i, b_j)."""

    space: SuperSpace
    matrix: _linalg.Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", _linalg.freeze(self.matrix))
        n = self.space.dim
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("form matrix shape mismatch")

    def value(self, x: GradedVector, y: GradedVector) -> Fraction:
        return sum(
            (xi * self.matrix[i][j] * yj
             for i, xi in enumerate(x.coords) if xi != 0
             for j, yj in enumerate(y.coords) if yj != 0),
            start=ZERO,
        )

    def value_sparse(self, xs: Mapping[int, Fraction], ys: Mapping[int, Fraction]) -> Fraction:
        return sum(
            (xi * self.matrix[i][j] * yj for i, xi in xs.items() for j, yj in ys.items()),
            start=ZERO,
        )


@dataclass(frozen=True)
class FormFlags:
    supersymmetric: bool
    skew_supersymmetric: bool
    nondegenerate: bool
    invariant: bool


def classify_form(omega: BilinearForm, A: Superalgebra,
                  product: str = "mul") -> FormFlags:
    """Exact flags: (skew-)supersymmetry, nondegeneracy, invariance."""
    n = A.space.dim
    par = A.space.parities()
    sym = all(
        omega.matrix[i][j] == koszul_sign(par[i], par[j]) * omega.matrix[j][i]
        for i in range(n) for j in range(n)
    )
    skew = all(
        omega.matrix[i][j] == -koszul_sign(par[i], par[j]) * omega.matrix[j][i]
        for i in range(n) for j in range(n)
    )
    nondeg = _linalg.determinant(omega.matrix) != 0
    invariant = True
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = omega.value_sparse(A.mul_basis(i, j, product), {k: ONE})
        rhs = omega.value_sparse({i: ONE}, A.mul_basis(j, k, product))
        if lhs != rhs:
            invariant = False
            break
    return FormFlags(sym, skew, nondeg, invariant)


def check_symplectic(omega: BilinearForm, A: Superalgebra, product: str = "mul",
                     witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Super two-cocycle condition: the cyclic graded sum
    (-1)^{|x||z|} w(x,[y,z]) + (-1)^{|y||x|} w(y,[z,x]) + (-1)^{|z||y|} w(z,[x,y])
    vanishes on all homogeneous basis triples.

    Preconditions (skew-supersymmetric, nondegenerate) are reported as flag
    failures rather than witnesses.  Witness leftovers are scalars.
    """
    col = _WitnessCollector("symplectic", witness_limit)
    flags = classify_form(omega, A, product)
    if not flags.skew_supersymmetric:
        col.preconditions.append("form is not skew-supersymmetric")
    if not flags.nondegenerate:
        col.preconditions.append("form is degenerate")
    n = A.space.dim
    par = A.space.parities()
    for i, j, k in itertools.product(range(n), repeat=3):
        col.tick()
        total = koszul_sign(par[i], par[k]) * omega.value_sparse(
            {i: ONE}, A.mul_basis(j, k, product))
        total += koszul_sign(par[j], par[i]) * omega.value_sparse(
            {j: ONE}, A.mul_basis(k, i, product))
        total += koszul_sign(par[k], par[j]) * omega.value_sparse(
            {k: ONE}, A.mul_basis(i, j, product))
        if total != 0:
            col.add((i, j, k), lambda: total)
    return col.report()


def pre_malcev_from_symplectic(omega: BilinearForm, A: Superalgebra,
                               product: str = "mul") -> Superalgebra:
    """The compatible product defined by
    w(x.y, z) = (-1)^{|x|(|y|+|z|)} w(y, [z, x]), solved row by row against
    the nondegenerate form."""
    report = check_symplectic(omega, A, product)
    if not report.ok:
        raise IdentityViolation(report)
    n = A.space.dim
    par = A.space.parities()
    # (omega^T) u = rhs with rhs_k = sign * w(b_j, [b_k, b_i])
    omega_t = _linalg.transpose(omega.matrix)
    entries: dict[tuple[int, int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            rhs = tuple(
                Fraction(koszul_sign(par[i], par[j] + par[k]))
                * omega.value_sparse({j: ONE}, A.mul_basis(k, i, product))
                for k in range(n)
            )
            coords = _linalg.solve(omega_t, rhs)
            for k, c in enumerate(coords):
                if c != 0:
                    entries[(i, j, k)] = c
    return Superalgebra.from_entries(A.space, {"mul": entries})


# -- grid search (test/example utility, not a stability guarantee) --------


# A quadratic form {(e1, e2): coefficient}, e1 <= e2, in the values of the
# support entries e1 and e2; zero coefficients are dropped.
_Form = dict[tuple[int, int], Fraction]


def _residual_forms(ctx: _Context,
                    support: Sequence[tuple[int, int]]) -> dict[tuple[int, int, int], _Form]:
    """Component m of the residual on the basis pair (a, b), keyed (a, b, m),
    as an exact quadratic form in the values of the ``support`` entries.

    This is ``_residuals`` read symbolically: column j of T holds the
    variable of each support entry (i, j).  A repeated entry is read at its
    last occurrence, the one that sets the operator's value.  Components
    that vanish identically are left out."""
    nV = ctx.module.dim
    rows = ctx.rows
    var = {entry: e for e, entry in enumerate(support)}
    cols: list[list[tuple[int, int]]] = [[] for _ in range(nV)]  # (row, variable)
    for (i, j), e in var.items():
        cols[j].append((i, e))
    forms: dict[tuple[int, int, int], _Form] = {}

    def add(a: int, b: int, m: int, x: int, y: int, c: Fraction):
        form = forms.setdefault((a, b, m), {})
        key = (x, y) if x <= y else (y, x)
        form[key] = form.get(key, ZERO) + c

    for a, b in itertools.product(range(nV), repeat=2):
        s = ctx.signs[a][b]
        for p, x in cols[a]:
            for q, y in cols[b]:
                for m, c in rows.get((p, q), {}).items():
                    add(a, b, m, x, y, c)
            for k, c in ctx.left[p][b].items():
                for m, y in cols[k]:
                    add(a, b, m, x, y, -c)
        for q, y in cols[b]:
            for k, c in ctx.right[q][a].items():
                for m, x in cols[k]:
                    add(a, b, m, x, y, -s * c)
    return {key: kept for key, form in forms.items()
            if (kept := {e: c for e, c in form.items() if c})}


def _form_value(form: _Form, x: Sequence[Fraction]) -> Fraction:
    return sum((c * x[e1] * x[e2] for (e1, e2), c in form.items() if x[e1] and x[e2]), ZERO)


def _search(ctx: _Context, values: Iterable[int],
            support: Sequence[tuple[int, int]] | None,
            limit: int | None) -> list[GradedLinearMap]:
    """Every even integer matrix T : V -> A with entries drawn from
    ``values`` on ``support`` whose residual vanishes on all basis pairs,
    in lexicographic order of the entry tuples, at most ``limit`` of them.

    A depth-first search assigns the support entries in the given order.
    Each residual component is a quadratic form in the entries, checked
    exactly as soon as the last entry it reads is assigned; a nonzero
    value prunes every completion of the partial assignment."""
    A, V = ctx.algebra.space, ctx.module
    if support is None:
        support = tuple((i, j) for i in range(A.dim) for j in range(V.dim)
                        if A.parity(i) == V.parity(j))
    for i, j in support:
        if A.parity(i) != V.parity(j):
            raise ParityViolation(f"support entry ({i}, {j}) is not parity-0")

    def hits() -> Iterator[GradedLinearMap]:
        vals = [Fraction(v) for v in values]
        n = len(support)
        due: list[list[_Form]] = [[] for _ in range(n)]  # by the depth of the last entry
        for form in _residual_forms(ctx, support).values():
            due[max(e2 for _, e2 in form)].append(form)
        x = [ZERO] * n

        def assign(d: int) -> Iterator[bool]:
            """Set x[d], in turn, to each value at which every form due at
            depth d vanishes."""
            for v in vals:
                x[d] = v
                if not any(_form_value(form, x) for form in due[d]):
                    yield True

        assigning: list[Iterator[bool]] = []  # one per assigned entry
        while True:
            if len(assigning) == n:
                value = dict(zip(support, x))
                yield GradedLinearMap(V, A, tuple(
                    tuple(value.get((i, j), ZERO) for j in range(V.dim))
                    for i in range(A.dim)), 0)
            else:
                assigning.append(assign(len(assigning)))
            while assigning and not next(assigning[-1], False):
                assigning.pop()
            if not assigning:
                return

    return list(itertools.islice(hits(), limit))


def search_rota_baxter(A: Superalgebra, values: Iterable[int] = range(-2, 3),
                       support: Sequence[tuple[int, int]] | None = None,
                       product: str = "mul",
                       limit: int | None = None) -> list[GradedLinearMap]:
    """All even integer-matrix Rota-Baxter operators with entries drawn from
    ``values`` on the given support (default: every parity-0 position)."""
    return _search(_rota_baxter_context(A, False, product), values, support, limit)


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
