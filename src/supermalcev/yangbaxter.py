"""The super Malcev Yang-Baxter equation (MYBE) engine.

Tensor side: for r = sum_i x_i (x) y_i with |r| = 0 the left-hand side
[r12,r13] + [r12,r23] + [r13,r23] is computed as a sparse 3-tensor from
three graded sums of brackets, the bracket being the algebra's ``mul``;
r solves the MYBE iff it vanishes.

Operator side: a skew-supersymmetric even r is regarded as a map A* -> A
and solves the MYBE iff that map is a super O-operator for the coadjoint
representation, the signed transpose of left multiplication
(``reps._dual_columns``).  The two sides share
no code path beyond the sparse helpers of ``_kernel``; their agreement is a
theorem that the test suite asserts over a corpus of solutions and
non-solutions, never assumes.  Both compute in integers: the rows and the
entries of r are scaled by their common denominator D, and every term of
the tensor side is a product of three scaled factors (D^3).

No dense map is built on the way: the r-map's sparse columns, which the
O-operator engine walks, come from r's stored entries, and so does the
skew-supersymmetry test.  The double A x|_{rho*} V* and r = T - sigma(T)
are built in one place from the action's columns and T's: the dual action
is their signed transpose (``reps._dual_columns``), the double its
semidirect product (``reps._semidirect``), and -sigma reads the sign of
moving A past V* from the table the transpose reads (``reps._move_signs``).
``canonical_r`` passes the left multiplication columns of P and unit columns
for the identity.
``r_as_map`` makes a map of the same columns; a symplectic form is read off
its inverse's columns, and ``rb_from_invariant_form`` composes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._kernel import EMPTY, Columns, Vector, denominator, scaled, scaled_rows, unscaled
from ._linalg import ONE
from .graded import (
    DimensionMismatch,
    GradedLinearMap,
    SuperSpace,
    Tensor2,
    Tensor3,
    _shape,
    _sparse_columns,
    koszul_sign,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
    check_pre_malcev,
    commutator_superalgebra,
)
from .reps import (
    Representation,
    _columns,
    _dual_columns,
    _move_signs,
    _multiplication_columns,
    _semidirect,
    _signed,
)
from .operators import (
    BilinearForm,
    _check_shape,
    _coadjoint_context,
    _Context,
    _induced_product,
    _require,
    _walk,
    classify_form,
)


@dataclass(frozen=True)
class MybeCandidate:
    """An even 2-tensor over a Malcev superalgebra, to be tested against
    the MYBE.  Skew-supersymmetry is checked on demand, not enforced.
    Raises ``DimensionMismatch`` unless r's space has the algebra's (even,
    odd) dimensions."""

    algebra: Superalgebra
    r: Tensor2

    def __post_init__(self):
        got, want = _shape(self.r.space), _shape(self.algebra.space)
        if got != want:
            raise DimensionMismatch(f"tensor has (even, odd) dimensions {got}, "
                                    f"the algebra {want}")
        if self.r.parity != 0:
            raise ValueError("only even candidates are supported (|r| = 0)")


def mybe_lhs(c: MybeCandidate) -> Tensor3:
    """[r12,r13] + [r12,r23] + [r13,r23] as an exact sparse 3-tensor.

    Writing r = sum r[a][b] b_a (x) b_b and [b_i, b_j] = b_i * b_j, the
    algebra's own product, the three graded sums are

      [r12,r13] = sum (-1)^{|b_c||b_b|} [b_a,b_c] (x) b_b (x) b_d,
      [r12,r23] = sum                    b_a (x) [b_b,b_c] (x) b_d,
      [r13,r23] = sum (-1)^{|b_a||b_c|} b_a (x) b_c (x) [b_b,b_d],

    summed over pairs of entries (a,b), (c,d) of r.  The Koszul factors
    are the ones forced by the graded tensor-product multiplication for
    an even r (for the middle sum the factor of the first one cancels
    against moving the bracket's arguments back into place).  Each term is
    added into one sparse output in place.
    """
    A = c.algebra
    par = A.space.parities()
    rows, entries = A.rows(), c.r._entries
    D = denominator(rows.values(), (entries,))
    rows, entries = scaled_rows(rows, D), scaled(entries, D)
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for (a, b), rab in entries.items():
        for (cc, d), rcd in entries.items():
            coeff = rab * rcd
            # [r12, r13]: [b_a, b_c] (x) b_b (x) b_d
            f = koszul_sign(par[cc], par[b]) * coeff
            for k, v in rows.get((a, cc), EMPTY).items():
                out[k, b, d] = get((k, b, d), 0) + f * v
            # [r12, r23]: b_a (x) [b_b, b_c] (x) b_d
            for k, v in rows.get((b, cc), EMPTY).items():
                out[a, k, d] = get((a, k, d), 0) + coeff * v
            # [r13, r23]: b_a (x) b_c (x) [b_b, b_d]
            f = koszul_sign(par[a], par[cc]) * coeff
            for k, v in rows.get((b, d), EMPTY).items():
                out[a, cc, k] = get((a, cc, k), 0) + f * v
    return Tensor3(A.space, unscaled({key: v for key, v in out.items() if v}, D ** 3))


def r_as_map(c: MybeCandidate) -> GradedLinearMap:
    """The even map A* -> A determined by the pairing identity; with the
    basis conventions used here its matrix is minus the transpose of the
    coefficient matrix (image of b_j* has coefficients -coeffs[j][i])."""
    A = c.algebra.space
    return GradedLinearMap._from_columns(A.dual(), A, _r_map_columns(c.r), c.r.parity)


def _r_map_columns(r: Tensor2) -> list[dict]:
    """The sparse columns of the r-map, read off r's stored entries: column
    j holds -r[j][i] at i."""
    return _sparse_columns({(i, j): -x for (j, i), x in r._entries.items()}, r.space.dim)


def _operator_form(c: MybeCandidate,
                   witness_limit: int) -> tuple[ViolationReport, _Context | None, list | None]:
    """The report of ``check_operator_form``, and the coadjoint context and
    r-map columns it read (``None`` when r is not skew-supersymmetric)."""
    if not c.r.is_skew_supersymmetric():
        col = _WitnessCollector("operator-form", witness_limit)
        col.preconditions.append("r is not skew-supersymmetric")
        return col.report(), None, None
    ctx, columns = _coadjoint_context(c.algebra), _r_map_columns(c.r)
    return _walk(ctx, columns, witness_limit), ctx, columns


def check_operator_form(c: MybeCandidate,
                        witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """[r(x*), r(y*)] = r(ad*(r(x*))y* - (-1)^{|x*||y*|} ad*(r(y*))x*)
    over all homogeneous dual-basis pairs.

    Preconditions: r skew-supersymmetric (flagged otherwise).  This is the
    O-operator identity of the r-map for the coadjoint representation,
    decided by the O-operator engine on the coadjoint action read off the
    rows and on the r-map's columns read off r's entries; it never touches
    the tensor-form code.
    """
    return _operator_form(c, witness_limit)[0]


def pre_malcev_on_dual_from_r(c: MybeCandidate) -> Superalgebra:
    """x*.y* = ad*(r(x*))(y*) on the dual space; requires the operator form."""
    report, coad, columns = _operator_form(c, DEFAULT_WITNESS_LIMIT)
    _require(report)
    return Superalgebra._from_rows(coad.module, {"mul": _induced_product(coad.left, columns)})


def _double(algebra: Superalgebra, module: SuperSpace, action: Columns,
            T: Sequence[Vector]) -> MybeCandidate:
    """r = T - sigma(T) in the double A x|_{rho*} V*, from the sparse columns
    of the action rho of A on V and of the even operator T: V -> A.

    The double is the semidirect product of the dual action, whose columns
    are the signed transpose of rho's.  T = sum_alpha T(v_alpha) (x) v_alpha*
    by Hom(V, A) ~ A (x) V*: an entry T[p][alpha] sits at (a, v) =
    (b_p, v_alpha*) of r, and -sigma puts -(-1)^{|a||v|} T[p][alpha] at (v, a).
    """
    A, dual = algebra.space, module.dual()
    rho_star = _dual_columns(action, A, module)
    double, emb_a, emb_v = _semidirect(algebra, dual, rho_star, _signed(A, dual, rho_star))
    par, signs, entries = A.parities(), _move_signs(module), {}
    for alpha, column in enumerate(T):
        for p, val in column.items():
            a, v = emb_a[p], emb_v[alpha]
            entries[a, v], entries[v, a] = val, signs[par[p]][alpha] * val
    return MybeCandidate(double, Tensor2._from_entries(double.space, entries))


def r_from_o_operator(T: GradedLinearMap, R: Representation) -> MybeCandidate:
    """Embed T: V -> A as an element of A (x) V* inside the double
    A x|_{rho*} V* and return r = T - sigma(T).

    The returned candidate is skew-supersymmetric by construction; it
    solves the MYBE in the double iff T is a super O-operator for (V, rho)
    (tested, not assumed).  Raises ``DimensionMismatch`` unless T is (even,
    odd)-shaped V -> A.
    """
    _check_shape("o-operator", T, R.space, R.algebra.space)
    if T.parity != 0:
        raise ValueError("only even operator candidates embed into the double")
    return _double(R.algebra, R.space, _columns(R.action), T.columns)


def canonical_r(P: Superalgebra) -> MybeCandidate:
    """The canonical MYBE solution attached to a pre-Malcev superalgebra:
    the identity map, seen as an O-operator for the left-multiplication
    representation of the sub-adjacent Malcev superalgebra, embedded in
    the double.  Coefficientwise
    r = sum_i (e_i (x) e_i* - e_i* (x) e_i) + sum_j (f_j (x) f_j* + f_j* (x) f_j).
    """
    _require(check_pre_malcev(P))
    return _double(commutator_superalgebra(P), P.space, _multiplication_columns(P),
                   [{i: ONE} for i in range(P.space.dim)])


def symplectic_from_r(c: MybeCandidate) -> BilinearForm:
    """omega(x, y) = <r^{-1}(x), y> for invertible skew-supersymmetric r."""
    if not c.r.is_skew_supersymmetric():
        raise ValueError("r is not skew-supersymmetric")
    try:
        inverse = r_as_map(c).inverse()
    except ValueError:
        raise ValueError("singular r: no symplectic form") from None
    return BilinearForm._from_entries(c.algebra.space, {
        (i, j): x for i, column in enumerate(inverse.columns) for j, x in column.items()})


def rb_from_invariant_form(c: MybeCandidate, B: BilinearForm) -> GradedLinearMap:
    """r-tilde = (r as map) composed with phi, <phi(x), y> = B(x, y).

    B must be supersymmetric, nondegenerate, and invariant; r must be
    skew-supersymmetric.  The result is a Rota-Baxter operator (default,
    unsigned variant) exactly when r solves the MYBE.
    """
    flags = classify_form(B, c.algebra)
    failing = []
    if not flags.supersymmetric:
        failing.append("supersymmetric")
    if not flags.nondegenerate:
        failing.append("nondegenerate")
    if not flags.invariant:
        failing.append("invariant")
    if failing:
        raise ValueError(f"form fails flags: {', '.join(failing)}")
    if not c.r.is_skew_supersymmetric():
        raise ValueError("r is not skew-supersymmetric")
    # column j of phi is row j of B
    A = c.algebra.space
    phi = GradedLinearMap._from_columns(A, A.dual(), _sparse_columns(
        {(i, j): x for (j, i), x in B._entries.items()}, A.dim))
    return r_as_map(c).compose(phi)
