"""The super Malcev Yang-Baxter equation (MYBE) engine.

Tensor side: for r = sum_i x_i (x) y_i with |r| = 0 the left-hand side
[r12,r13] + [r12,r23] + [r13,r23] is computed as a sparse 3-tensor from
three graded sums of brackets, the bracket being the algebra's ``mul``;
r solves the MYBE iff it vanishes.

Operator side: a skew-supersymmetric even r is regarded as a map A* -> A
and solves the MYBE iff that map is a super O-operator for the coadjoint
representation, read straight off the algebra's rows.  The two sides share
no code path beyond the sparse helpers of ``_kernel``; their agreement is a
theorem that the test suite asserts over a corpus of solutions and
non-solutions, never assumes.  Both compute in integers: the rows and the
entries of r are scaled by their common denominator D, and every term of
the tensor side is a product of three scaled factors (D^3).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _linalg
from ._kernel import EMPTY, add_scaled, denominator, scaled, scaled_rows, unscaled
from ._linalg import ZERO
from .graded import (
    GradedLinearMap,
    Tensor2,
    Tensor3,
    direct_sum,
    koszul_sign,
    sigma,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
    check_pre_malcev,
)
from .reps import (
    Representation,
    dual_representation,
    left_multiplication_representation,
    semidirect_malcev,
)
from .operators import (
    BilinearForm,
    IdentityViolation,
    _check,
    _coadjoint_context,
    _induced_product,
    classify_form,
)


@dataclass(frozen=True)
class MybeCandidate:
    """An even 2-tensor over a Malcev superalgebra, to be tested against
    the MYBE.  Skew-supersymmetry is checked on demand, not enforced."""

    algebra: Superalgebra
    r: Tensor2

    def __post_init__(self):
        if self.r.space.dim != self.algebra.space.dim:
            raise ValueError("tensor does not live over the algebra's space")
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
    against moving the bracket's arguments back into place).
    """
    A = c.algebra
    par = A.space.parities()
    rows, entries = A.rows(), c.r.sparse()
    D = denominator(rows.values(), (entries,))
    rows, entries = scaled_rows(rows, D), scaled(entries, D)
    out: dict[tuple[int, int, int], int] = {}
    for (a, b), rab in entries.items():
        for (cc, d), rcd in entries.items():
            coeff = rab * rcd
            # [r12, r13]: [b_a, b_c] (x) b_b (x) b_d
            add_scaled(out, {(k, b, d): v for k, v in rows.get((a, cc), EMPTY).items()},
                       koszul_sign(par[cc], par[b]) * coeff)
            # [r12, r23]: b_a (x) [b_b, b_c] (x) b_d
            add_scaled(out, {(a, k, d): v for k, v in rows.get((b, cc), EMPTY).items()}, coeff)
            # [r13, r23]: b_a (x) b_c (x) [b_b, b_d]
            add_scaled(out, {(a, cc, k): v for k, v in rows.get((b, d), EMPTY).items()},
                       koszul_sign(par[a], par[cc]) * coeff)
    return Tensor3(A.space, unscaled(out, D ** 3))


def r_as_map(c: MybeCandidate) -> GradedLinearMap:
    """The even map A* -> A determined by the pairing identity; with the
    basis conventions used here its matrix is minus the transpose of the
    coefficient matrix (image of b_j* has coefficients -coeffs[j][i])."""
    n = c.algebra.space.dim
    coeffs = c.r.coeffs
    rows = tuple(
        tuple(-coeffs[j][i] for j in range(n)) for i in range(n)
    )
    return GradedLinearMap(
        c.algebra.space.dual(), c.algebra.space, rows, c.r.parity
    )


def check_operator_form(c: MybeCandidate,
                        witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """[r(x*), r(y*)] = r(ad*(r(x*))y* - (-1)^{|x*||y*|} ad*(r(y*))x*)
    over all homogeneous dual-basis pairs.

    Preconditions: r skew-supersymmetric (flagged otherwise).  This is the
    O-operator identity of the r-map for the coadjoint representation,
    decided by the O-operator engine on the coadjoint action read off the
    rows (no dense coadjoint matrices); it never touches the tensor-form
    code.
    """
    if not c.r.is_skew_supersymmetric():
        col = _WitnessCollector("operator-form", witness_limit)
        col.preconditions.append("r is not skew-supersymmetric")
        return col.report()
    inner = _check(_coadjoint_context(c.algebra), r_as_map(c), witness_limit)
    return ViolationReport(
        "operator-form",
        inner.witnesses,
        inner.violation_count,
        inner.checked_tuples,
        inner.precondition_failures,
    )


def pre_malcev_on_dual_from_r(c: MybeCandidate) -> Superalgebra:
    """x*.y* = ad*(r(x*))(y*) on the dual space; requires the operator form."""
    report = check_operator_form(c)
    if not report.ok:
        raise IdentityViolation(report)
    coad = _coadjoint_context(c.algebra)
    return Superalgebra.from_entries(
        coad.module, {"mul": _induced_product(coad.left, r_as_map(c))})


def r_from_o_operator(T: GradedLinearMap, R: Representation) -> MybeCandidate:
    """Embed T: V -> A as an element of A (x) V* inside the double
    A x|_{rho*} V* and return r = T - sigma(T).

    The embedding follows Hom(V, A) ~ A (x) V*:
    T = sum_alpha T(v_alpha) (x) v_alpha*.  The returned candidate is
    skew-supersymmetric by construction; it solves the MYBE in the double
    iff T is a super O-operator for (V, rho) (tested, not assumed).
    """
    if T.parity != 0:
        raise ValueError("only even operator candidates embed into the double")
    rho_star = dual_representation(R)
    double = semidirect_malcev(rho_star)
    total, emb_a, emb_v = direct_sum(R.algebra.space, rho_star.space)
    n = total.dim
    coeffs = [[ZERO] * n for _ in range(n)]
    for alpha in range(R.space.dim):
        for p in range(R.algebra.space.dim):
            val = T.matrix[p][alpha]
            if val != 0:
                coeffs[emb_a[p]][emb_v[alpha]] = val
    t_emb = Tensor2(total, tuple(tuple(row) for row in coeffs), 0)
    r = t_emb - sigma(t_emb)
    return MybeCandidate(double, r)


def canonical_r(P: Superalgebra) -> MybeCandidate:
    """The canonical MYBE solution attached to a pre-Malcev superalgebra:
    the identity map, seen as an O-operator for the left-multiplication
    representation of the sub-adjacent Malcev superalgebra, embedded in
    the double.  Coefficientwise
    r = sum_i (e_i (x) e_i* - e_i* (x) e_i) + sum_j (f_j (x) f_j* + f_j* (x) f_j).
    """
    report = check_pre_malcev(P)
    if not report.ok:
        raise IdentityViolation(report)
    L = left_multiplication_representation(P)
    return r_from_o_operator(GradedLinearMap.identity(P.space), L)


def symplectic_from_r(c: MybeCandidate) -> BilinearForm:
    """omega(x, y) = <r^{-1}(x), y> for invertible skew-supersymmetric r."""
    if not c.r.is_skew_supersymmetric():
        raise ValueError("r is not skew-supersymmetric")
    rmap = r_as_map(c)
    if not rmap.is_invertible():
        raise ValueError("singular r: no symplectic form")
    inv = _linalg.invert(rmap.matrix)
    return BilinearForm(c.algebra.space, _linalg.transpose(inv))


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
    phi = _linalg.transpose(B.matrix)
    rmap = r_as_map(c)
    return GradedLinearMap(
        c.algebra.space, c.algebra.space,
        _linalg.mat_mul(rmap.matrix, phi), 0,
    )
