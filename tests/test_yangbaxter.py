"""Tensor and operator forms of the MYBE.

The dense oracle below rebuilds the three graded sums of brackets from the
raw bracket table with its own sign bookkeeping; the library's sparse
accumulation never feeds it.  The Thm-equivalence tests treat agreement of
independent code paths as the assertion, never as an assumption.
"""

import itertools
import random
from fractions import Fraction

import pytest

from supermalcev import (
    BilinearForm,
    GradedLinearMap,
    IdentityViolation,
    MybeCandidate,
    SuperSpace,
    Superalgebra,
    Tensor2,
    adjoint_representation,
    canonical_r,
    check_malcev,
    check_o_operator_malcev,
    check_operator_form,
    check_pre_malcev,
    check_symplectic,
    classify_form,
    coadjoint_representation,
    check_rota_baxter,
    commutator_superalgebra,
    mybe_lhs,
    pre_malcev_from_rota_baxter,
    pre_malcev_from_symplectic,
    pre_malcev_on_dual_from_r,
    r_as_map,
    r_from_o_operator,
    rb_from_invariant_form,
    search_o_operators_malcev,
    symplectic_from_r,
)
from supermalcev import fixtures
from supermalcev.graded import koszul_sign

Z = Fraction(0)


# -- dense oracle --------------------------------------------------------------


def oracle_mybe_lhs(A, r):
    """Dense triple-loop evaluation of the three graded sums, with the
    algebra's product as the bracket."""
    table = A.table("mul")
    par = A.space.parities()
    n = A.space.dim

    def bracket(i, j):
        return table[i][j]

    out = [[[Z] * n for _ in range(n)] for _ in range(n)]
    coeffs = r.coeffs
    for a in range(n):
        for b in range(n):
            if coeffs[a][b] == 0:
                continue
            for c in range(n):
                for d in range(n):
                    if coeffs[c][d] == 0:
                        continue
                    w = coeffs[a][b] * coeffs[c][d]
                    s_cb = koszul_sign(par[c], par[b])
                    s_ac = koszul_sign(par[a], par[c])
                    br = bracket(a, c)
                    for k in range(n):
                        if br[k]:
                            out[k][b][d] += s_cb * w * br[k]
                    br = bracket(b, c)
                    for k in range(n):
                        if br[k]:
                            out[a][k][d] += w * br[k]
                    br = bracket(b, d)
                    for k in range(n):
                        if br[k]:
                            out[a][c][k] += s_ac * w * br[k]
    return out


def dense_of(t3, n):
    out = [[[Z] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in t3.coeffs.items():
        out[i][j][k] = c
    return out


def skew_tensor(space, upper, odd_diag=()):
    """Skew-supersymmetric even tensor from upper-triangle data."""
    n = space.dim
    rows = [[Z] * n for _ in range(n)]
    for (i, j), c in upper.items():
        rows[i][j] = Fraction(c)
        rows[j][i] = Fraction(-c) if space.parity(i) == 0 else Fraction(c)
    for i, c in odd_diag:
        rows[i][i] = Fraction(c)
    return Tensor2(space, tuple(tuple(r) for r in rows), 0)


def random_skew(space, rng, low=-2, high=2):
    upper = {}
    odd_diag = []
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            if space.parity(i) == space.parity(j):
                upper[(i, j)] = rng.randint(low, high)
        if space.parity(i) == 1:
            odd_diag.append((i, rng.randint(low, high)))
    return skew_tensor(space, upper, odd_diag)


def mixed_corpus():
    """Solutions and perturbed non-solutions over even and mixed algebras."""
    out = []
    sl2 = fixtures.sl2()
    rng = random.Random(12)
    for _ in range(8):
        out.append(MybeCandidate(sl2, random_skew(sl2.space, rng)))
    heis_double = canonical_r(fixtures.pre_malcev_1_1()).algebra
    for _ in range(10):
        out.append(MybeCandidate(heis_double, random_skew(heis_double.space, rng)))
    out.append(canonical_r(fixtures.pre_malcev_1_1()))
    out.append(canonical_r(fixtures.pre_lie_sl2()))
    abelian = fixtures.zero_algebra(2, 2)
    for _ in range(3):
        out.append(MybeCandidate(abelian, random_skew(abelian.space, rng)))
    return out


# -- tensor form -----------------------------------------------------------------


def test_mybe_lhs_zero_tensor():
    A = fixtures.sl2()
    assert mybe_lhs(MybeCandidate(A, Tensor2.zero(A.space))).is_zero()


def test_mybe_lhs_abelian_bracket():
    A = fixtures.zero_algebra(2, 2)
    rng = random.Random(3)
    for _ in range(3):
        r = random_skew(A.space, rng)
        assert mybe_lhs(MybeCandidate(A, r)).is_zero()


def test_mybe_lhs_matches_dense_oracle():
    for c in mixed_corpus():
        n = c.algebra.space.dim
        assert dense_of(mybe_lhs(c), n) == oracle_mybe_lhs(c.algebra, c.r)


def test_canonical_r_solves_tensor_form():
    for P in (fixtures.pre_malcev_1_1(), fixtures.pre_lie_sl2()):
        c = canonical_r(P)
        assert mybe_lhs(c).is_zero()
        assert all(x == 0 for plane in oracle_mybe_lhs(c.algebra, c.r)
                   for row in plane for x in row)


# -- r as a map -------------------------------------------------------------------


def test_r_as_map_zero():
    A = fixtures.sl2()
    m = r_as_map(MybeCandidate(A, Tensor2.zero(A.space)))
    assert all(c == 0 for row in m.matrix for c in row)


def test_r_as_map_even_example():
    # r = e1 (x) e2 - e2 (x) e1 on a purely even 2-dim space
    A = fixtures.zero_algebra(2, 0)
    r = skew_tensor(A.space, {(0, 1): 1})
    m = r_as_map(MybeCandidate(A, r))
    # image convention of the operator-form proofs: r(b_j*) = -sum coeffs[j][i] b_i
    assert m.matrix == ((Z, Fraction(1)), (Fraction(-1), Z))


def test_r_as_map_follows_stated_values_on_both_blocks():
    space = SuperSpace(1, 1)
    A = fixtures.heisenberg_1_1()
    r = skew_tensor(space, {}, odd_diag=((1, 3),))
    m = r_as_map(MybeCandidate(A, r))
    n = space.dim
    for p in range(n):
        for q in range(n):
            assert m.matrix[q][p] == -r.coeffs[p][q]


def test_r_as_map_parity_even():
    c = canonical_r(fixtures.pre_malcev_1_1())
    assert r_as_map(c).parity == 0


# -- Thm equivalence: tensor vs operator form ---------------------------------------


def test_operator_form_requires_skewness():
    A = fixtures.zero_algebra(1, 1)
    not_skew = Tensor2(A.space, ((Fraction(1), Z), (Z, Z)), 0)
    report = check_operator_form(MybeCandidate(A, not_skew))
    assert report.precondition_failures


def test_tensor_and_operator_form_agree_on_corpus():
    solutions = non_solutions = 0
    for c in mixed_corpus():
        tz = mybe_lhs(c).is_zero()
        op = check_operator_form(c).ok
        assert tz == op
        solutions += tz
        non_solutions += not tz
    assert solutions >= 5 and non_solutions >= 5


def lopsided_products():
    """Seeded odd-graded products on 1|1, 2|1 and 2|2 that are not
    graded-anticommutative: the MYBE forms read each as it is."""
    for shape in ((1, 1), (2, 1), (2, 2)):
        for seed in range(8):
            A = fixtures.random_product(SuperSpace(*shape), seed, -1, 1)
            par = A.space.parities()
            assert any(A.mul_basis(i, j) != {k: -koszul_sign(par[i], par[j]) * c
                                             for k, c in A.mul_basis(j, i).items()}
                       for i in range(A.space.dim) for j in range(A.space.dim))
            yield seed, A


def test_forms_agree_on_products_that_are_not_anticommutative():
    solutions = non_solutions = 0
    for seed, A in lopsided_products():
        rng = random.Random(seed)
        for _ in range(3):
            c = MybeCandidate(A, random_skew(A.space, rng, -1, 1))
            lhs = mybe_lhs(c)
            assert dense_of(lhs, A.space.dim) == oracle_mybe_lhs(A, c.r)
            assert lhs.is_zero() == check_operator_form(c).ok
            solutions += lhs.is_zero()
            non_solutions += not lhs.is_zero()
    assert solutions >= 10 and non_solutions >= 10


def test_double_embedding_biconditional_on_products_that_are_not_anticommutative():
    # T is an O-operator for the adjoint action iff r = T - sigma(T) solves
    # both forms of the MYBE in the double
    passing = failing = 0
    for seed, A in lopsided_products():
        R = adjoint_representation(A)
        rng = random.Random(seed)
        found = [T for T in search_o_operators_malcev(R, values=(-1, 0, 1))
                 if any(any(row) for row in T.matrix)]
        for T in found[:3] + [fixtures.random_even_matrix(A.space, A.space, 0, rng, -1, 1)
                              for _ in range(3)]:
            c = r_from_o_operator(T, R)
            is_operator = check_o_operator_malcev(T, R).ok
            assert mybe_lhs(c).is_zero() == check_operator_form(c).ok == is_operator
            passing += is_operator
            failing += not is_operator
    assert passing >= 10 and failing >= 10


def scaled(c, algebra_factor, r_factor):
    """The candidate over the algebra with its product scaled, and r scaled."""
    A = c.algebra
    scaled_algebra = Superalgebra.from_entries(A.space, {"mul": {
        (i, j, k): algebra_factor * v for (i, j), row in A.rows().items()
        for k, v in row.items()}})
    n = A.space.dim
    r = Tensor2(A.space, tuple(tuple(r_factor * c.r.coeffs[i][j] for j in range(n))
                               for i in range(n)), 0)
    return MybeCandidate(scaled_algebra, r)


def test_both_forms_match_the_oracle_with_denominators():
    # products over 3 and r over 5, or products over 2 and r over 3: both
    # MYBE forms are homogeneous, so scaling keeps solutions solutions
    solutions = [canonical_r(fixtures.pre_malcev_1_1()), canonical_r(fixtures.pre_lie_sl2())]
    corpus = [scaled(c, Fraction(1, 3), Fraction(1, 5)) for c in solutions]
    corpus += [scaled(c, Fraction(1, 2), Fraction(1, 3)) for c in mixed_corpus()[:12]]
    solved = 0
    for c in corpus:
        n = c.algebra.space.dim
        lhs = mybe_lhs(c)
        assert dense_of(lhs, n) == oracle_mybe_lhs(c.algebra, c.r)
        report = check_operator_form(c, witness_limit=10 ** 9)
        assert report.ok == lhs.is_zero()
        assert {w[0][:2] for w in report.witnesses} == {(j, k) for (_, j, k) in lhs.coeffs}
        solved += report.ok
    assert solved >= 2 and solved < len(corpus)
    for c in corpus[:2]:
        assert {v.denominator for v in c.r.sparse().values()} == {5}
        assert max(v.denominator for row in c.algebra.rows().values() for v in row.values()) == 3


def test_parity_block_case_structure():
    # the operator check fails at a dual pair (p, q) exactly when the
    # tensor LHS has a nonzero slice (., p, q); each of the four parity
    # classes of pairs is exercised by the corpus
    classes_seen = set()
    for c in mixed_corpus():
        lhs = mybe_lhs(c)
        report = check_operator_form(c, witness_limit=10 ** 9)
        bad_pairs = {w[0][:2] for w in report.witnesses}
        slice_pairs = {(j, k) for (_, j, k) in lhs.coeffs}
        assert bad_pairs == slice_pairs
        par = c.algebra.space.parities()
        classes_seen |= {(par[p], par[q]) for p, q in bad_pairs}
    assert classes_seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_pre_malcev_on_dual_from_solution():
    for P in (fixtures.pre_malcev_1_1(), fixtures.pre_lie_sl2()):
        c = canonical_r(P)
        dualalg = pre_malcev_on_dual_from_r(c)
        assert check_pre_malcev(dualalg).ok
    A = fixtures.zero_algebra(1, 1)
    c0 = MybeCandidate(A, Tensor2.zero(A.space))
    P0 = pre_malcev_on_dual_from_r(c0)
    assert all(c == 0 for plane in P0.table("mul") for row in plane for c in row)


def test_pre_malcev_on_dual_requires_solution():
    sl2 = fixtures.sl2()
    bad = MybeCandidate(sl2, skew_tensor(sl2.space, {(0, 2): 1, (1, 2): 1}))
    assert not mybe_lhs(bad).is_zero()
    with pytest.raises(IdentityViolation):
        pre_malcev_on_dual_from_r(bad)


# -- Thm: r = T - sigma(T) in the double ---------------------------------------------


def enumerate_even_maps(domain, codomain, values=(-1, 0, 1)):
    support = [
        (i, j) for i in range(codomain.dim) for j in range(domain.dim)
        if codomain.parity(i) == domain.parity(j)
    ]
    for combo in itertools.product(values, repeat=len(support)):
        rows = [[Z] * domain.dim for _ in range(codomain.dim)]
        for (i, j), v in zip(support, combo):
            rows[i][j] = Fraction(v)
        yield GradedLinearMap(domain, codomain, tuple(tuple(r) for r in rows), 0)


def test_thm_oop_iff_solution_in_double():
    heis = fixtures.heisenberg_1_1()
    contexts = [
        adjoint_representation(heis),
        coadjoint_representation(fixtures.affine_1_1()),
    ]
    for R in contexts:
        positives = negatives = 0
        for T in enumerate_even_maps(R.space, R.algebra.space, values=(-2, -1, 0, 1, 2)):
            c = r_from_o_operator(T, R)
            assert c.r.is_skew_supersymmetric()
            oop = check_o_operator_malcev(T, R).ok
            assert oop == mybe_lhs(c).is_zero()
            positives += oop
            negatives += not oop
        assert positives >= 3 and negatives >= 5


def test_r_from_zero_operator_is_zero():
    R = adjoint_representation(fixtures.sl2())
    c = r_from_o_operator(GradedLinearMap.zero(R.space, R.algebra.space, 0), R)
    assert c.r.is_zero()
    assert mybe_lhs(c).is_zero()


def test_r_from_o_operator_double_is_malcev():
    R = adjoint_representation(fixtures.heisenberg_1_1())
    c = r_from_o_operator(GradedLinearMap.identity(R.space), R)
    assert check_malcev(c.algebra).ok
    assert c.algebra.space.dim == 4


def test_rb_embedding_solves_in_sl2_double():
    # a genuine O-operator for (sl(2), ad): the Rota-Baxter map f -> e
    A = fixtures.sl2()
    R = adjoint_representation(A)
    rb = fixtures.rb_sl2_nilpotent()
    c = r_from_o_operator(rb, R)
    assert c.algebra.space.dim == 6
    assert mybe_lhs(c).is_zero()
    assert check_operator_form(c).ok


# -- canonical solution ----------------------------------------------------------


def test_canonical_r_coefficient_pattern():
    # r = sum_i (e_i (x) e_i* - e_i* (x) e_i) + sum_j (f_j (x) f_j* + f_j* (x) f_j)
    P = fixtures.pre_malcev_1_1()
    c = canonical_r(P)
    total, emb_a, emb_v = __import__("supermalcev").direct_sum(
        commutator_superalgebra(P).space,
        commutator_superalgebra(P).space.dual())
    coeffs = c.r.coeffs
    expected = {}
    for i in range(P.space.dim):
        sign_back = 1 if total.parity(emb_a[i]) else -1
        expected[(emb_a[i], emb_v[i])] = Fraction(1)
        expected[(emb_v[i], emb_a[i])] = Fraction(sign_back)
    got = {
        (i, j): coeffs[i][j]
        for i in range(total.dim) for j in range(total.dim)
        if coeffs[i][j] != 0
    }
    assert got == expected


def test_canonical_r_zero_product_1_0():
    P = fixtures.zero_algebra(1, 0)
    c = canonical_r(P)
    assert c.algebra.space.dim == 2
    assert c.r.coeffs == ((Z, Fraction(1)), (Fraction(-1), Z))
    assert mybe_lhs(c).is_zero() and check_operator_form(c).ok


def test_canonical_r_passes_both_forms_on_fixtures():
    for P in (fixtures.pre_malcev_1_1(), fixtures.pre_lie_sl2()):
        c = canonical_r(P)
        assert c.r.is_skew_supersymmetric()
        assert mybe_lhs(c).is_zero()
        assert check_operator_form(c).ok


def test_canonical_r_requires_pre_malcev():
    bad = fixtures.random_product(SuperSpace(1, 1), seed=5)
    with pytest.raises(IdentityViolation):
        canonical_r(bad)


# -- symplectic correspondence ------------------------------------------------------


def test_symplectic_from_invertible_skew_on_abelian():
    A = fixtures.zero_algebra(2, 2)
    r = skew_tensor(A.space, {(0, 1): 1}, odd_diag=((2, 1), (3, 1)))
    c = MybeCandidate(A, r)
    omega = symplectic_from_r(c)
    flags = classify_form(omega, A)
    assert flags.skew_supersymmetric and flags.nondegenerate
    assert check_symplectic(omega, A).ok


def test_symplectic_biconditional_and_round_trip():
    c = canonical_r(fixtures.pre_malcev_1_1())
    omega = symplectic_from_r(c)
    assert check_symplectic(omega, c.algebra).ok
    P = pre_malcev_from_symplectic(omega, c.algebra)
    assert check_pre_malcev(P).ok
    assert commutator_superalgebra(P).table("mul") == c.algebra.table("mul")
    # non-solution side: perturb while keeping skewness and invertibility
    rows = [list(row) for row in c.r.coeffs]
    rows[0][1] += 1
    rows[1][0] -= 1
    bad = MybeCandidate(c.algebra, Tensor2(c.algebra.space,
                                           tuple(tuple(r) for r in rows), 0))
    assert not mybe_lhs(bad).is_zero()
    m = r_as_map(bad)
    if m.is_invertible():
        omega_bad = symplectic_from_r(bad)
        assert not check_symplectic(omega_bad, bad.algebra).ok


def test_symplectic_from_singular_r_rejected():
    A = fixtures.sl2()
    with pytest.raises(ValueError):
        symplectic_from_r(MybeCandidate(A, Tensor2.zero(A.space)))


# -- invariant-form corollary --------------------------------------------------------


def killing_form(A):
    ad = adjoint_representation(A)
    n = A.space.dim
    from supermalcev import _linalg
    return BilinearForm(A.space, tuple(
        tuple(sum(_linalg.mat_mul(ad.action[i].matrix, ad.action[j].matrix)[k][k]
                  for k in range(n)) for j in range(n))
        for i in range(n)
    ))


def test_rb_from_invariant_form_zero_r():
    A = fixtures.sl2()
    rt = rb_from_invariant_form(MybeCandidate(A, Tensor2.zero(A.space)),
                                killing_form(A))
    assert all(c == 0 for row in rt.matrix for c in row)
    assert check_rota_baxter(rt, A).ok


def test_rb_from_invariant_form_biconditional_on_sl2():
    A = fixtures.sl2()
    B = killing_form(A)
    rng = random.Random(5)
    seen_good = seen_bad = 0
    for _ in range(12):
        r = random_skew(A.space, rng)
        c = MybeCandidate(A, r)
        rt = rb_from_invariant_form(c, B)
        is_solution = mybe_lhs(c).is_zero()
        assert check_rota_baxter(rt, A).ok == is_solution
        if is_solution and not r.is_zero():
            P = pre_malcev_from_rota_baxter(rt, A)
            assert check_pre_malcev(P).ok
        seen_good += is_solution
        seen_bad += not is_solution
    assert seen_good >= 1 and seen_bad >= 1


def test_rb_from_invariant_form_flag_failure_named():
    A = fixtures.sl2()
    skew_form = BilinearForm(A.space, ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError) as exc:
        rb_from_invariant_form(MybeCandidate(A, Tensor2.zero(A.space)), skew_form)
    assert "supersymmetric" in str(exc.value)
