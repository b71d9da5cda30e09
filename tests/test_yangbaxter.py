"""Tensor and operator forms of the MYBE.

The dense oracle below rebuilds the three graded sums of brackets from the
raw bracket table with its own sign bookkeeping; the library's sparse
accumulation never feeds it.  The Thm-equivalence tests treat agreement of
independent code paths as the assertion, never as an assumption.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from supermalcev import (
    BilinearForm,
    DimensionMismatch,
    GradedLinearMap,
    IdentityViolation,
    MybeCandidate,
    Representation,
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
    dual_representation,
    left_multiplication_representation,
    mybe_lhs,
    pre_malcev_from_rota_baxter,
    pre_malcev_from_symplectic,
    pre_malcev_on_dual_from_r,
    r_as_map,
    r_from_o_operator,
    rb_from_invariant_form,
    search_o_operators_malcev,
    search_rota_baxter,
    semidirect_malcev,
    symplectic_from_r,
)
from supermalcev import fixtures
from supermalcev.graded import direct_sum, koszul_sign
from rational_inputs import rational_action, rational_operator

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


def anticommutative(A):
    par = A.space.parities()
    return all(A.mul_basis(i, j) == {k: -koszul_sign(par[i], par[j]) * c
                                     for k, c in A.mul_basis(j, i).items()}
               for i in range(A.space.dim) for j in range(A.space.dim))


def lopsided_products(seeds=range(8)):
    """Seeded odd-graded products on 1|1, 2|1 and 2|2 that are not
    graded-anticommutative: the MYBE forms read each as it is."""
    for shape in ((1, 1), (2, 1), (2, 2)):
        for seed in seeds:
            A = fixtures.random_product(SuperSpace(*shape), seed, -1, 1)
            assert not anticommutative(A)
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


def test_slice_witnesses_need_an_anticommutative_product():
    # off anticommutative products the two forms agree on the verdict, but
    # the failing dual pairs of the operator form need not be the nonzero
    # slices of the tensor form
    verdicts = slices_differ = 0
    for seed, A in lopsided_products(range(10)):
        rng = random.Random(seed)
        for _ in range(3):
            c = MybeCandidate(A, random_skew(A.space, rng, -1, 1))
            lhs = mybe_lhs(c)
            report = check_operator_form(c, witness_limit=10 ** 9)
            assert report.ok == lhs.is_zero()
            verdicts += 1
            slices_differ += ({w[0][:2] for w in report.witnesses}
                              != {(j, k) for (_, j, k) in lhs.coeffs})
    assert verdicts == 90 and slices_differ > 0


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
        assert anticommutative(c.algebra)  # the slice-level match needs it
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
    # on an anticommutative product the operator check fails at a dual pair
    # (p, q) exactly when the tensor LHS has a nonzero slice (., p, q); each
    # of the four parity classes of pairs is exercised by the corpus
    classes_seen = set()
    for c in mixed_corpus():
        assert anticommutative(c.algebra)
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


def flip_difference(T, R):
    """t - sigma(t) from the definitions: t has T[p][alpha] at
    (b_p, v_alpha*) of A + V*, and sigma(t) has (-1)^{|i||j|} t[j][i] at (i, j)."""
    total, emb_a, emb_v = direct_sum(R.algebra.space, R.space.dual())
    n, par = total.dim, total.parities()
    t = [[Z] * n for _ in range(n)]
    for p, alpha in itertools.product(range(R.algebra.space.dim), range(R.space.dim)):
        t[emb_a[p]][emb_v[alpha]] = T.matrix[p][alpha]
    return Tensor2(total, tuple(tuple(t[i][j] - koszul_sign(par[i], par[j]) * t[j][i]
                                      for j in range(n)) for i in range(n)), 0)


def sl2_operators():
    """The nonzero O-operators of sl2's adjoint action with entries in
    (-1, 0, 1), and that action."""
    R = adjoint_representation(fixtures.sl2())
    return [T for T in search_o_operators_malcev(R, values=(-1, 0, 1))
            if any(any(row) for row in T.matrix)], R


def heisenberg_module_operators(seeds=range(6)):
    """Seeded rational even operators into the 1|1 Heisenberg bracket from
    a seeded rational 2|2 module of it."""
    heis, V = fixtures.heisenberg_1_1(), SuperSpace(2, 2)
    for seed in seeds:
        yield rational_operator(V, heis.space, seed), Representation(
            heis, V, rational_action(heis, V, seed))


def test_r_from_o_operator_is_the_operator_less_its_flip():
    # in the double of the dual action, built as the public functions build it
    odd, _ = list(heisenberg_module_operators())[3]  # over 4, with odd entries
    assert any(odd.matrix[1][j] for j in (2, 3))
    found, R = sl2_operators()
    cases = [(fixtures.rb_sl2_nilpotent(), R)] + [(T, R) for T in found[:12]]
    cases += heisenberg_module_operators()
    for T, R in cases:
        c = r_from_o_operator(T, R)
        assert c.algebra == semidirect_malcev(dual_representation(R))
        assert c.r == flip_difference(T, R)
        assert not c.r.is_zero()
    assert len(cases) == 19


def pre_malcev_inputs():
    """Pre-Malcev algebras, even and odd: fixtures, the zero products, the
    products of sl2's Rota-Baxter operators and the 2|2 product that the
    symplectic form of the canonical r of ``pre_malcev_1_1`` gives."""
    sl2 = fixtures.sl2()
    rbs = [R for R in search_rota_baxter(sl2, values=(-1, 0, 1)) if any(any(r) for r in R.matrix)]
    c = canonical_r(fixtures.pre_malcev_1_1())
    out = [fixtures.pre_malcev_1_1(), fixtures.pre_lie_sl2(), fixtures.zero_algebra(1, 0),
           fixtures.zero_algebra(1, 1),
           pre_malcev_from_symplectic(symplectic_from_r(c), c.algebra)]
    out += [pre_malcev_from_rota_baxter(R, sl2) for R in rbs[::4]]
    assert all(check_pre_malcev(P).ok for P in out)
    return out


def test_canonical_r_is_the_identity_in_the_double_of_left_multiplication():
    inputs = pre_malcev_inputs()
    for P in inputs:
        L = left_multiplication_representation(P)
        c = canonical_r(P)
        assert c.algebra == semidirect_malcev(dual_representation(L))
        assert c.r == flip_difference(GradedLinearMap.identity(P.space), L)
    assert len(inputs) >= 10
    assert any(P.space.odd_dim and P.rows() for P in inputs)


def random_even_tensor(space, rng):
    """A seeded even 2-tensor, skew-supersymmetric only by chance."""
    n = space.dim
    return Tensor2(space, tuple(
        tuple(Fraction(rng.randint(-2, 2)) if space.parity(i) == space.parity(j) else Z
              for j in range(n)) for i in range(n)), 0)


def operator_form_corpus():
    """Passing, failing and non-skew candidates over even and odd algebras."""
    found, R = sl2_operators()
    out = mixed_corpus() + [r_from_o_operator(T, R) for T in found[:6]]
    out += [canonical_r(P) for P in pre_malcev_inputs()]
    out += [r_from_o_operator(T, R) for T, R in heisenberg_module_operators()]
    rng = random.Random(19)
    for seed, A in lopsided_products(range(2)):
        out.append(MybeCandidate(A, random_skew(A.space, rng, -1, 1)))
    for A in (fixtures.sl2(), out[10].algebra, fixtures.heisenberg_1_1()):
        out += [MybeCandidate(A, random_even_tensor(A.space, rng)) for _ in range(3)]
    return out


def test_operator_form_is_the_engine_report_of_the_r_map():
    # the operator form reads the r-map's columns off r's entries; its
    # report is the O-operator report of r_as_map on the coadjoint action
    seen = {"pass": 0, "fail": 0, "not skew": 0}
    for c in operator_form_corpus():
        skew = c.r.is_skew_supersymmetric()
        for limit in (1, 3, 10 ** 6):
            report = check_operator_form(c, witness_limit=limit)
            if skew:
                engine = check_o_operator_malcev(r_as_map(c), coadjoint_representation(c.algebra),
                                                 witness_limit=limit)
                assert report == dataclasses.replace(engine, identity="operator-form")
            else:
                assert report.identity == "operator-form"
                assert report.precondition_failures == ("r is not skew-supersymmetric",)
                assert (report.witnesses, report.violation_count, report.checked_tuples) == ((), 0, 0)
        seen["not skew" if not skew else "pass" if report.ok else "fail"] += 1
    assert min(seen.values()) >= 8


def test_mybe_pipeline_builds_no_dense_map(monkeypatch):
    # the double, r and the r-map are built from sparse columns: no
    # GradedLinearMap is made by the constructions or the operator form,
    # through the public constructor or the one from columns
    P = fixtures.pre_malcev_1_1()
    found, R = sl2_operators()
    T, (heis_T, heis_R) = found[0], next(heisenberg_module_operators())
    c = canonical_r(fixtures.pre_lie_sl2())
    not_skew = MybeCandidate(c.algebra, random_even_tensor(c.algebra.space, random.Random(3)))
    assert not not_skew.r.is_skew_supersymmetric()
    built = []
    from_columns = GradedLinearMap._from_columns

    def counting(cls, *args):
        built.append(from_columns(*args))
        return built[-1]
    monkeypatch.setattr(GradedLinearMap, "_from_columns", classmethod(counting))
    assert GradedLinearMap.identity(P.space) == built.pop()  # both constructors are counted
    assert GradedLinearMap(P.space, P.space, ((1, 0), (0, 1))) == built.pop()
    candidates = [canonical_r(P), r_from_o_operator(T, R), r_from_o_operator(heis_T, heis_R)]
    reports = [check_operator_form(x) for x in candidates + [c, not_skew]]
    pre_malcev_on_dual_from_r(c)
    assert built == []
    assert [r.ok for r in reports] == [True, True, False, True, False]


def test_r_from_o_operator_checks_the_operator_shape():
    # a 2|0 -> 3|0 map used to give r from 2 of V's 3 columns, and a
    # 2|1 -> 3|0 map an r over a wrongly graded double
    sl2 = fixtures.sl2()
    R = adjoint_representation(sl2)
    for domain in (SuperSpace(2, 0), SuperSpace(2, 1)):
        T = GradedLinearMap(domain, sl2.space, tuple(
            tuple(Fraction(1) if i == j and domain.parity(j) == 0 else Z
                  for j in range(domain.dim)) for i in range(3)), 0)
        with pytest.raises(DimensionMismatch) as raised:
            r_from_o_operator(T, R)
        with pytest.raises(DimensionMismatch) as checked:
            check_o_operator_malcev(T, R)
        assert str(raised.value) == str(checked.value)
        assert str(raised.value).startswith("o-operator: operator has (even, odd) dimensions (2, ")


def test_candidate_compares_even_and_odd_dimensions():
    # an r over 2|0 on the 1|1 Heisenberg bracket has the right total
    # dimension but the wrong grading
    heis = fixtures.heisenberg_1_1()
    r = skew_tensor(SuperSpace(2, 0), {(0, 1): 1})
    with pytest.raises(DimensionMismatch, match=r"\(2, 0\), the algebra \(1, 1\)"):
        MybeCandidate(heis, r)
    with pytest.raises(ValueError):
        MybeCandidate(heis, Tensor2.zero(SuperSpace(1, 0)))
    assert check_operator_form(MybeCandidate(heis, Tensor2.zero(heis.space))).ok


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
    return BilinearForm(A.space, tuple(
        tuple(sum(ad.action[i].compose(ad.action[j]).columns[k].get(k, 0)
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
