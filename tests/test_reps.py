"""Representation and bimodule machinery against independent matrix oracles."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from supermalcev import (
    Bimodule,
    DimensionMismatch,
    GradedLinearMap,
    ParityViolation,
    Representation,
    SuperSpace,
    Superalgebra,
    adjoint_representation,
    are_equivalent,
    check_alternative_bimodule,
    check_malcev,
    check_malcev_representation,
    coadjoint_representation,
    commutator_superalgebra,
    direct_sum,
    dual_representation,
    left_multiplication_representation,
    regular_bimodule,
    rep_from_bimodule,
    semidirect_alternative,
    semidirect_malcev,
    check_left_alternative,
    check_right_alternative,
)
from supermalcev.reps import double_dual_identification
from supermalcev import fixtures, reps
from work_counts import multiply_adds, walker_visits
from rational_inputs import (
    algebra_constants,
    denominator,
    even_unimodular,
    map_constants,
    rational_action,
    rational_product,
    rebased,
    seven_digit_primes,
)

Z = Fraction(0)


def mat_mul(a, b):
    out = [[Z] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out[i][j] += x * y
    return out


def mat_comb(mats, coords):
    n = len(mats[0])
    out = [[Z] * n for _ in range(n)]
    for idx, c in enumerate(coords):
        if c:
            for r, row in enumerate(mats[idx]):
                for s, x in enumerate(row):
                    if x:
                        out[r][s] += c * x
    return out


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def sgn(p, q):
    return -1 if (p % 2) and (q % 2) else 1


def first_bad_column(residual):
    """(col, column) of the first nonzero column of a square residual, or None."""
    for c in range(len(residual)):
        column = [row[c] for row in residual]
        if any(column):
            return c, column
    return None


def oracle_rep_witnesses(R):
    """Direct expansion of the defining representation identity: the
    failing triples in order, each as ((i, j, k, col), column) with the
    first nonzero column of the residual matrix."""
    A = R.algebra
    table = A.table("mul")
    par = A.space.parities()
    mats = [[list(row) for row in m.matrix] for m in R.action]
    n = A.space.dim
    found = []
    for i, j, k in itertools.product(range(n), repeat=3):
        xy = table[i][j]
        xyz = [Z] * n
        for idx, c in enumerate(xy):
            if c:
                for kk, cc in enumerate(table[idx][k]):
                    xyz[kk] += c * cc
        lhs = mat_comb(mats, xyz)
        rhs = mat_mul(mats[i], mat_mul(mats[j], mats[k]))
        t2 = mat_mul(mats[k], mat_mul(mats[i], mats[j]))
        s2 = sgn(par[k], par[i] + par[j])
        t3 = mat_mul(mats[j], mat_comb(mats, table[k][i]))
        t4 = mat_mul(mat_comb(mats, table[j][k]), mats[i])
        s34 = sgn(par[i], par[j] + par[k])
        n_v = len(lhs)
        for c in range(n_v):
            column = [lhs[r][c] - rhs[r][c] + s2 * t2[r][c] - s34 * t3[r][c] + s34 * t4[r][c]
                      for r in range(n_v)]
            if any(column):
                found.append(((i, j, k, c), column))
                break
    return found


def oracle_rep_failures(R):
    return {indices[:3] for indices, _ in oracle_rep_witnesses(R)}


def oracle_bimodule_witnesses(B):
    """Direct expansion of the four bimodule identities from the table: the
    failing (identity#, i, j) in order, each as ((q, i, j, col), column).
    Identities 2 and 3 take the sign of the module vector of column c."""
    A = B.algebra
    table = A.table("mul")
    par, vpar = A.space.parities(), B.space.parities()
    L = [[list(row) for row in m.matrix] for m in B.left]
    R = [[list(row) for row in m.matrix] for m in B.right]
    n = A.space.dim
    nv = B.space.dim
    found = []
    for i, j in itertools.product(range(n), repeat=2):
        s = sgn(par[i], par[j])
        lxy, lyx = mat_comb(L, table[i][j]), mat_comb(L, table[j][i])
        rxy, ryx = mat_comb(R, table[i][j]), mat_comb(R, table[j][i])
        lilj, ljli = mat_mul(L[i], L[j]), mat_mul(L[j], L[i])
        rjri, rirj = mat_mul(R[j], R[i]), mat_mul(R[i], R[j])
        rjli, lirj = mat_mul(R[j], L[i]), mat_mul(L[i], R[j])
        residuals = [
            [[lxy[r][c] + s * lyx[r][c] - lilj[r][c] - s * ljli[r][c]
              for c in range(nv)] for r in range(nv)],
            [[rjri[r][c] + s * rirj[r][c] - rxy[r][c] - s * ryx[r][c]
              for c in range(nv)] for r in range(nv)],
            [[rjri[r][c] + sgn(par[i], vpar[c]) * (rjli[r][c] - lirj[r][c]) - rxy[r][c]
              for c in range(nv)] for r in range(nv)],
            [[rjli[r][c] + sgn(vpar[c], par[j]) * (lxy[r][c] - lilj[r][c]) - lirj[r][c]
              for c in range(nv)] for r in range(nv)],
        ]
        for q, res in enumerate(residuals):
            bad = first_bad_column(res)
            if bad:
                found.append(((q, i, j, bad[0]), bad[1]))
    return found


def oracle_bimodule_failures(B):
    return {indices[:3] for indices, _ in oracle_bimodule_witnesses(B)}


def assert_matches_oracle(report, expected, checked, limit):
    assert report.violation_count == len(expected) > 0
    assert report.checked_tuples == checked
    assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


# seeded odd-graded algebras, each with random actions on a module (1|2 and
# 3|3 algebras act on modules of another shape)
ODD_CASES = [(SuperSpace(*shape), SuperSpace(*module), seed)
             for shape, module in (((1, 2), (2, 1)), ((2, 2), (2, 2)), ((3, 3), (1, 2)))
             for seed in (3, 4)]


@pytest.mark.parametrize("space, module, seed", ODD_CASES)
def test_representation_checker_matches_oracle_on_odd_inputs(space, module, seed):
    A = fixtures.random_product(space, seed)
    R = Representation(A, module, fixtures.random_action_maps(A, module, seed + 10))
    expected = oracle_rep_witnesses(R)
    for limit in (3, 64):
        report = check_malcev_representation(R, witness_limit=limit)
        assert_matches_oracle(report, expected, space.dim ** 3, limit)


@pytest.mark.parametrize("space, module, seed", ODD_CASES)
def test_bimodule_checker_matches_oracle_on_odd_inputs(space, module, seed):
    A = fixtures.random_product(space, seed)
    B = Bimodule(A, module, fixtures.random_action_maps(A, module, seed + 10),
                 fixtures.random_action_maps(A, module, seed + 20))
    expected = oracle_bimodule_witnesses(B)
    for limit in (3, 64):
        report = check_alternative_bimodule(B, witness_limit=limit)
        assert_matches_oracle(report, expected, space.dim ** 2, limit)


# algebra constants over 2 and 3, actions over 5 (left 4, right 5)
RATIONAL_CASES = [(SuperSpace(2, 2), SuperSpace(2, 2), 5), (SuperSpace(3, 3), SuperSpace(1, 2), 6)]


@pytest.mark.parametrize("space, module, seed", RATIONAL_CASES)
def test_representation_checker_matches_oracle_with_denominators(space, module, seed):
    A = rational_product(space, seed)
    R = Representation(A, module, rational_action(A, module, seed + 10))
    assert denominator(*algebra_constants(A), *map_constants(*R.action)) == 30
    expected = oracle_rep_witnesses(R)
    for limit in (3, 10 ** 6):
        report = check_malcev_representation(R, witness_limit=limit)
        assert_matches_oracle(report, expected, space.dim ** 3, limit)


@pytest.mark.parametrize("space, module, seed", RATIONAL_CASES)
def test_bimodule_checker_matches_oracle_with_denominators(space, module, seed):
    A = rational_product(space, seed)
    B = Bimodule(A, module, rational_action(A, module, seed + 10, "left"),
                 rational_action(A, module, seed + 20, "right"))
    assert denominator(*algebra_constants(A), *map_constants(*B.left, *B.right)) == 60
    expected = oracle_bimodule_witnesses(B)
    for limit in (3, 10 ** 6):
        report = check_alternative_bimodule(B, witness_limit=limit)
        assert_matches_oracle(report, expected, space.dim ** 2, limit)


def seeded_bimodule(kind, space, module, seed):
    """The bimodule of an ``ODD_CASES`` or a ``RATIONAL_CASES`` entry."""
    if kind == "odd":
        A = fixtures.random_product(space, seed)
        return Bimodule(A, module, fixtures.random_action_maps(A, module, seed + 10),
                        fixtures.random_action_maps(A, module, seed + 20))
    A = rational_product(space, seed)
    return Bimodule(A, module, rational_action(A, module, seed + 10, "left"),
                    rational_action(A, module, seed + 20, "right"))


SEEDED_CASES = ([("odd", *case) for case in ODD_CASES]
                + [("rational", *case) for case in RATIONAL_CASES])


def oracle_equivalence_witnesses(R, Rp, phi):
    """The failing algebra indices i in order, each as ((i, col), column)
    with the first nonzero column of phi rho(b_i) - rho'(b_i) phi."""
    found = []
    for i, (m, mp) in enumerate(zip(R.action, Rp.action)):
        residual = [[x - y for x, y in zip(ra, rb)] for ra, rb in
                    zip(mat_mul(phi.matrix, m.matrix), mat_mul(mp.matrix, phi.matrix))]
        bad = first_bad_column(residual)
        if bad:
            found.append(((i, bad[0]), bad[1]))
    return found


def conjugated(R, phi):
    """The representation phi rho phi^{-1}, equivalent to R through phi."""
    inverse = phi.inverse()
    return Representation(R.algebra, R.space, tuple(phi.compose(m).compose(inverse)
                                                    for m in R.action))


def test_are_equivalent_with_denominators():
    space, module = SuperSpace(2, 2), SuperSpace(2, 2)
    A = rational_product(space, 5)
    R = Representation(A, module, rational_action(A, module, 15))
    phi = GradedLinearMap(module, module, tuple(
        tuple(Fraction(1, 2 + i) if i == j else (Fraction(1, 3) if (i, j) == (0, 1) else Z)
              for j in range(4)) for i in range(4)), 0)
    assert are_equivalent(R, conjugated(R, phi), phi).ok
    # against R itself, index i fails at the first nonzero column of
    # phi rho(b_i) - rho(b_i) phi
    report = are_equivalent(R, R, phi, witness_limit=10 ** 6)
    expected = oracle_equivalence_witnesses(R, R, phi)
    assert expected
    assert report.violation_count == len(expected)
    assert [(w, list(v.coords)) for w, v in report.witnesses] == expected


# -- Malcev representations -------------------------------------------------


def test_zero_action_is_a_representation():
    A = fixtures.sl2()
    V = SuperSpace(2, 1)
    zero = tuple(GradedLinearMap.zero(V, V, A.space.parity(i)) for i in range(3))
    assert check_malcev_representation(Representation(A, V, zero)).ok


def test_adjoint_representations_match_oracle():
    for A in (fixtures.sl2(), fixtures.heisenberg_1_1(), fixtures.affine_1_1()):
        ad = adjoint_representation(A)
        assert oracle_rep_failures(ad) == set()
        assert check_malcev_representation(ad).ok


def test_random_action_fails_with_oracle_witnesses():
    A = fixtures.sl2()
    maps = fixtures.random_action_maps(A, A.space, seed=9)
    R = Representation(A, A.space, maps)
    bad = oracle_rep_failures(R)
    assert bad
    report = check_malcev_representation(R, witness_limit=10 ** 6)
    assert {w[0][:3] for w in report.witnesses} == bad


def with_matrices(R, maps):
    return Representation(R.algebra, R.space, tuple(
        GradedLinearMap(R.space, R.space, rows, m.parity) for m, rows in zip(R.action, maps)))


def with_columns_kept(R, keep, seed):
    """R with each column of each map kept with probability ``keep`` and the
    others set to zero."""
    rng = random.Random(seed)
    kept = [[rng.random() < keep for _ in range(R.space.dim)] for _ in R.action]
    return with_matrices(R, ([[x if k else Z for x, k in zip(row, ks)] for row in m.matrix]
                        for m, ks in zip(R.action, kept)))


def is_zero_matrix(m):
    return not any(x for row in m for x in row)


def sparse_case(space, module, seed):
    A = rational_product(space, seed)
    return with_columns_kept(Representation(A, module, rational_action(A, module, seed + 10)),
                             0.3, seed)


def scaled_octonion_coadjoint():
    """The coadjoint action of [O] divided by 6: the identity's terms have
    degree 1, 2 and 3 in the action, so they cancel only in part."""
    co = coadjoint_representation(commutator_superalgebra(fixtures.split_octonions()))
    return with_matrices(co, ([[x / 6 for x in row] for row in m.matrix] for m in co.action))


def zero_on_the_odd_part(space, module, seed):
    A = fixtures.random_product(space, seed)
    R = Representation(A, module, fixtures.random_action_maps(A, module, seed + 10))
    return with_matrices(R, (m.matrix if m.parity == 0 else [[Z] * module.dim] * module.dim
                        for m in R.action))


SPARSE_AND_CANCELLING = [
    pytest.param(lambda: sparse_case(SuperSpace(2, 2), SuperSpace(2, 2), 7), id="sparse-2|2"),
    pytest.param(lambda: sparse_case(SuperSpace(3, 3), SuperSpace(1, 2), 4), id="sparse-3|3"),
    pytest.param(scaled_octonion_coadjoint, id="octonion-coadjoint/6"),
    pytest.param(lambda: zero_on_the_odd_part(SuperSpace(2, 2), SuperSpace(2, 1), 3),
                 id="zero-on-odd-2|2"),
]


@pytest.mark.parametrize("build", SPARSE_AND_CANCELLING)
def test_representation_checker_matches_oracle_on_sparse_and_cancelling_inputs(build):
    R = build()
    mats = [m.matrix for m in R.action]
    pairs = [is_zero_matrix(mat_mul(a, b)) for a in mats for b in mats]
    assert any(pairs) and not all(pairs)  # some operators rho(a)rho(b) are zero, not all
    expected = oracle_rep_witnesses(R)
    for limit in (1, 3, 10 ** 6):
        report = check_malcev_representation(R, witness_limit=limit)
        assert_matches_oracle(report, expected, R.algebra.space.dim ** 3, limit)


def composite_columns(f, g):
    """The sparse columns of the composite f g of two maps given by theirs."""
    out = []
    for column in g:
        res = {}
        for j, a in column.items():
            for r, v in f[j].items():
                res[r] = res.get(r, 0) + a * v
        out.append({r: v for r, v in res.items() if v})
    return out


def test_representation_checker_holds_one_block_of_pair_operators_at_a_time():
    """On a dense action the checker's peak memory stays below what the
    operators rho(a)rho(b) for all n^2 pairs a, b would take alone."""
    A = commutator_superalgebra(fixtures.split_octonions())
    V = SuperSpace(8, 8)
    R = Representation(A, V, fixtures.random_action_maps(A, V, 2))
    columns = [[{r: int(x) for r, x in column.items()} for column in m.columns]
               for m in R.action]
    assert sum(len(column) for cols in columns for column in cols) > 0.75 * 8 * 16 * 8
    tracemalloc.start()
    try:
        pairs = [[composite_columns(f, g) for g in columns] for f in columns]
        table_bytes = tracemalloc.get_traced_memory()[0]
        del pairs
        tracemalloc.reset_peak()
        report = check_malcev_representation(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes
    assert report.checked_tuples == 8 ** 3
    assert report.violation_count > 0
    assert check_malcev(semidirect_malcev(R)).ok == report.ok


def test_action_shape_validated_by_even_and_odd_dimension():
    # an even map b1 -> b0 of the 0|2 space has the dimension of a 1|1 module,
    # but read with the module's parities it would send an odd vector to an
    # even one
    A = Superalgebra(SuperSpace(1, 0), {"mul": {}})
    V, W = SuperSpace(1, 1), SuperSpace(0, 2)
    on_w = GradedLinearMap(W, W, ((0, 1), (0, 0)), 0)
    on_v = GradedLinearMap.zero(V, V, 0)
    assert Representation(A, W, (on_w,)).action == (on_w,)
    for build in (lambda: Representation(A, V, (on_w,)),
                  lambda: Bimodule(A, V, (on_w,), (on_v,)),
                  lambda: Bimodule(A, V, (on_v,), (on_w,)),
                  lambda: Representation(A, V, (GradedLinearMap.zero(V, W, 0),))):
        with pytest.raises(DimensionMismatch, match="does not act on the module space"):
            build()


def test_action_with_a_map_count_other_than_the_algebra_dimension_is_a_dimension_mismatch():
    A, V = fixtures.heisenberg_1_1(), SuperSpace(1, 0)
    action = GradedLinearMap.zero(V, V, 0), GradedLinearMap.zero(V, V, 1)
    for build, what in ((lambda: Representation(A, V, action[:1]), "representation"),
                        (lambda: Bimodule(A, V, action[:1], action), "bimodule left action"),
                        (lambda: Bimodule(A, V, action, ()), "bimodule right action")):
        with pytest.raises(DimensionMismatch,
                           match=f"^{what}: one map per algebra basis element required$"):
            build()


def test_action_parity_validated():
    A = fixtures.heisenberg_1_1()
    V = SuperSpace(1, 1)
    odd_for_even = GradedLinearMap(V, V, ((0, 1), (1, 0)), 1)
    with pytest.raises(ParityViolation):
        Representation(A, V, (odd_for_even, odd_for_even))


# -- bimodules ----------------------------------------------------------------


def test_zero_bimodule_ok():
    A = fixtures.grassmann_1_1()
    V = SuperSpace(1, 1)
    zero = tuple(GradedLinearMap.zero(V, V, A.space.parity(i)) for i in range(2))
    assert check_alternative_bimodule(Bimodule(A, V, zero, zero)).ok


def test_regular_bimodule_octonions_oracle():
    A = fixtures.split_octonions()
    B = regular_bimodule(A)
    assert oracle_bimodule_failures(B) == set()
    assert check_alternative_bimodule(B).ok


def test_swapped_regular_bimodule_fails():
    A = fixtures.split_octonions()
    B = regular_bimodule(A)
    swapped = Bimodule(A, A.space, B.right, B.left)
    bad = oracle_bimodule_failures(swapped)
    assert bad
    report = check_alternative_bimodule(swapped, witness_limit=10 ** 6)
    assert {w[0][:3] for w in report.witnesses} == bad


def test_regular_bimodules_of_1_1_fixtures():
    for A in (fixtures.grassmann_1_1(), fixtures.clifford_1_1()):
        B = regular_bimodule(A)
        assert oracle_bimodule_failures(B) == set()
        assert check_alternative_bimodule(B).ok


# -- semidirect products ------------------------------------------------------


def test_semidirect_malcev_zero_action_is_direct_sum():
    A = fixtures.sl2()
    V = SuperSpace(1, 1)
    zero = tuple(GradedLinearMap.zero(V, V, A.space.parity(i)) for i in range(3))
    S = semidirect_malcev(Representation(A, V, zero))
    assert check_malcev(S).ok
    assert S.space.dim == 5


def test_semidirect_malcev_biconditional_both_directions():
    # Positives and negatives on sl(2) and a 1|1 Malcev fixture.
    corpus = []
    sl2 = fixtures.sl2()
    heis = fixtures.heisenberg_1_1()
    corpus.append(adjoint_representation(sl2))
    corpus.append(coadjoint_representation(sl2))
    corpus.append(adjoint_representation(heis))
    for seed in range(6):
        corpus.append(Representation(
            sl2, sl2.space, fixtures.random_action_maps(sl2, sl2.space, seed)))
        corpus.append(Representation(
            heis, heis.space, fixtures.random_action_maps(heis, heis.space, seed)))
    seen_good = seen_bad = 0
    for R in corpus:
        rep_ok = check_malcev_representation(R).ok
        sd_ok = check_malcev(semidirect_malcev(R)).ok
        assert rep_ok == sd_ok
        seen_good += rep_ok
        seen_bad += not rep_ok
    assert seen_good >= 3 and seen_bad >= 3


def test_semidirect_alternative_biconditional_both_directions():
    A = fixtures.zorn_split_octonions()
    g = fixtures.grassmann_1_1()
    corpus = [regular_bimodule(A), regular_bimodule(g)]
    reg = regular_bimodule(A)
    corpus.append(Bimodule(A, A.space, reg.right, reg.left))  # swapped: invalid
    rng = random.Random(2)
    corpus.append(Bimodule(
        g, g.space,
        fixtures.random_action_maps(g, g.space, seed=4),
        fixtures.random_action_maps(g, g.space, seed=5),
    ))
    for B in corpus:
        bim_ok = check_alternative_bimodule(B).ok
        S = semidirect_alternative(B)
        sd_ok = check_left_alternative(S).ok and check_right_alternative(S).ok
        assert bim_ok == sd_ok


@pytest.mark.parametrize("space, module, seed", ODD_CASES)
def test_bimodule_identities_are_the_alternativity_of_the_semidirect_product(
        space, module, seed):
    """Column c of identity q at (i, j) is the alternativity residual of
    A + V at a triple of b_i, b_j and the module vector v = b_c: left at
    (x, y, v), right at (v, x, y), left at (x, v, y) times (-1)^{|x||v|},
    and right at (x, v, y)."""
    A = fixtures.random_product(space, seed)
    B = Bimodule(A, module, fixtures.random_action_maps(A, module, seed + 10),
                 fixtures.random_action_maps(A, module, seed + 20))
    S = semidirect_alternative(B)
    _, emb_a, emb_v = direct_sum(A.space, module)
    left, right = ({w: v.coords for w, v in check(S, witness_limit=10 ** 6).witnesses}
                   for check in (check_left_alternative, check_right_alternative))
    par, vpar = A.space.parities(), module.parities()
    expected = []
    for i, j in itertools.product(range(A.space.dim), repeat=2):
        x, y = emb_a[i], emb_a[j]
        for q in range(4):
            for c, v in enumerate(emb_v):
                sign = sgn(par[i], vpar[c]) if q == 2 else 1
                found = ((left.get((x, y, v)), right.get((v, x, y)),
                          left.get((x, v, y)), right.get((x, v, y)))[q])
                if found:
                    expected.append(((q, i, j, c), [sign * found[k] for k in emb_v]))
                    break
    report = check_alternative_bimodule(B, witness_limit=10 ** 6)
    assert [(w, list(v.coords)) for w, v in report.witnesses] == expected
    assert report.violation_count == len(expected) > 0


def test_odd_square_zero_ideal_of_octonions_tensor_grassmann_is_a_bimodule():
    """A = O (x) Lambda(xi1), 8|8 with O the split octonions, acts on
    V = O xi2 + O xi1 xi2 (8|8) by the product of O (x) Lambda(xi1, xi2), in
    which V is a square-zero ideal.  A + V is that alternative
    superalgebra, so V is an alternative bimodule; identities 2 and 3 see
    it only with the sign of the module vector."""
    O = fixtures.split_octonions()
    A, G = fixtures.tensor_grassmann(O, 1), fixtures.tensor_grassmann(O, 2)
    labels = G.space.labels
    a_basis = [labels.index(label) for label in A.space.labels]
    v_basis = [p for p, label in enumerate(labels) if label.endswith("xi2")]  # even first
    assert [G.mul_basis(x, y) for x in a_basis for y in a_basis] == [
        {a_basis[k]: c for k, c in A.mul_basis(x, y).items()}
        for x in range(16) for y in range(16)]
    assert all(not G.mul_basis(v, w) for v in v_basis for w in v_basis)
    V = SuperSpace(8, 8)

    def action(act):
        return tuple(GradedLinearMap(V, V, [[act(x, v).get(z, 0) for v in v_basis]
                                            for z in v_basis], A.space.parity(a))
                     for a, x in enumerate(a_basis))

    B = Bimodule(A, V, action(G.mul_basis), action(lambda x, v: G.mul_basis(v, x)))
    for X in (A, semidirect_alternative(B)):
        assert check_left_alternative(X).ok and check_right_alternative(X).ok
    report = check_alternative_bimodule(B)
    assert (report.violation_count, report.checked_tuples) == (0, 256)


def test_semidirect_zero_bimodule_square_zero_ideal():
    A = fixtures.grassmann_1_1()
    V = SuperSpace(1, 1)
    zero = tuple(GradedLinearMap.zero(V, V, A.space.parity(i)) for i in range(2))
    S = semidirect_alternative(Bimodule(A, V, zero, zero))
    assert check_left_alternative(S).ok and check_right_alternative(S).ok
    # V embeds as an ideal with zero products
    _, _, emb_v = __import__("supermalcev").direct_sum(A.space, V)
    table = S.table("mul")
    for i in emb_v:
        for j in emb_v:
            assert all(c == 0 for c in table[i][j])


@pytest.mark.parametrize("kind, space, module, seed", SEEDED_CASES)
def test_semidirect_malcev_is_the_semidirect_product_with_the_signed_right_action(
        kind, space, module, seed):
    """[v, x] = -(-1)^{|x||v|} rho(x) v, so A + V with the bracket of
    semidirect_malcev is the product of semidirect_alternative with
    l = rho and that r, built here column by column from the matrices."""
    B = seeded_bimodule(kind, space, module, seed)
    R = Representation(B.algebra, module, B.left)
    par, vpar, n = space.parities(), module.parities(), module.dim
    right = tuple(GradedLinearMap(module, module, [
        [-sgn(par[i], vpar[c]) * m.matrix[r][c] for c in range(n)] for r in range(n)], par[i])
        for i, m in enumerate(R.action))
    assert semidirect_malcev(R) == semidirect_alternative(Bimodule(B.algebra, module,
                                                                   R.action, right))


# -- duals ---------------------------------------------------------------------


def test_dual_of_zero_action_is_zero():
    A = fixtures.sl2()
    V = SuperSpace(2, 0)
    zero = tuple(GradedLinearMap.zero(V, V, 0) for _ in range(3))
    D = dual_representation(Representation(A, V, zero))
    assert all(all(c == 0 for row in m.matrix for c in row) for m in D.action)


def test_dual_purely_even_is_minus_transpose():
    A = fixtures.sl2()
    ad = adjoint_representation(A)
    dual = dual_representation(ad)
    for m, d in zip(ad.action, dual.action):
        n = len(m.matrix)
        assert all(d.matrix[i][j] == -m.matrix[j][i] for i in range(n) for j in range(n))


def test_dual_defining_equation_with_koszul_signs():
    # <rho*(x) a*, b> = -(-1)^{|x||a*|} <a*, rho(x) b>, checked entrywise
    reps = [adjoint_representation(A)
            for A in (fixtures.heisenberg_1_1(), fixtures.affine_1_1())]
    reps += [Representation(B.algebra, B.space, B.left)
             for B in (seeded_bimodule(*case) for case in SEEDED_CASES)]
    for R in reps:
        D = dual_representation(R)
        assert D.space == R.space.dual()
        n = R.space.dim
        par = R.algebra.space.parities()
        vpar = R.space.parities()
        for x in range(R.algebra.space.dim):
            assert D.action[x].parity == par[x]
            for a in range(n):       # dual basis index
                for b in range(n):   # primal basis index
                    lhs = D.action[x].matrix[b][a]
                    rhs = -sgn(par[x], vpar[a]) * R.action[x].matrix[a][b]
                    assert lhs == rhs


@pytest.mark.parametrize("kind, space, module, seed", SEEDED_CASES)
def test_dual_columns_are_the_dense_signed_transpose(kind, space, module, seed):
    # column a of rho*(b_x) holds -(-1)^{|x||a|} rho(b_x)[a][b] at row b, and no zero
    B = seeded_bimodule(kind, space, module, seed)
    for V, maps in ((module, B.left), (module, B.right),
                    (space, adjoint_representation(B.algebra).action)):
        vpar = V.parities()
        dual = reps._dual_columns(reps._columns(maps), space, V)
        assert len(dual) == space.dim
        for p, m, columns in zip(space.parities(), maps, dual):
            assert len(columns) == V.dim
            for a, column in enumerate(columns):
                assert 0 not in column.values()
                assert column == {b: -sgn(p, vpar[a]) * m.matrix[a][b]
                                  for b in range(V.dim) if m.matrix[a][b]}


def test_dual_representation_closure():
    reps = [
        adjoint_representation(fixtures.sl2()),
        adjoint_representation(fixtures.heisenberg_1_1()),
        adjoint_representation(fixtures.affine_1_1()),
        rep_from_bimodule(regular_bimodule(fixtures.clifford_1_1())),
    ]
    for R in reps:
        assert check_malcev_representation(R).ok
        assert check_malcev_representation(dual_representation(R)).ok


def test_double_dual_under_canonical_identification():
    for R in (
        adjoint_representation(fixtures.sl2()),
        adjoint_representation(fixtures.affine_1_1()),
        coadjoint_representation(fixtures.heisenberg_1_1()),
    ):
        dd = dual_representation(dual_representation(R))
        iota = double_dual_identification(R.space)
        for m, mdd in zip(R.action, dd.action):
            assert iota.compose(m).matrix == mdd.compose(iota).matrix


def test_coadjoint_is_dual_of_adjoint():
    seeded = ([fixtures.random_product(space, seed) for space, _, seed in ODD_CASES]
              + [rational_product(space, seed) for space, _, seed in RATIONAL_CASES])
    for A in (fixtures.sl2(), fixtures.heisenberg_1_1(), *seeded):
        co = coadjoint_representation(A)
        via_dual = dual_representation(adjoint_representation(A))
        assert all(a.matrix == b.matrix for a, b in zip(co.action, via_dual.action))


# -- bimodule -> representation -----------------------------------------------


def test_rep_from_bimodule_right_zero_gives_left():
    A = fixtures.grassmann_1_1()
    B = regular_bimodule(A)
    zeroed = Bimodule(A, B.space, B.left,
                      tuple(GradedLinearMap.zero(B.space, B.space, A.space.parity(i))
                            for i in range(A.space.dim)))
    R = rep_from_bimodule(zeroed)
    assert all(r.matrix == l.matrix for r, l in zip(R.action, B.left))


def oracle_rep_from_bimodule(B):
    """The matrices of rho(x)v = l(x)v - (-1)^{|x||v|} r(x)v, entry by entry."""
    n, vpar = B.space.dim, B.space.parities()
    return [tuple(tuple(l.matrix[r][c] - sgn(p, vpar[c]) * rm.matrix[r][c] for c in range(n))
                  for r in range(n))
            for p, l, rm in zip(B.algebra.space.parities(), B.left, B.right)]


@pytest.mark.parametrize("kind, space, module, seed", SEEDED_CASES)
def test_rep_from_bimodule_matches_the_dense_formula(kind, space, module, seed):
    B = seeded_bimodule(kind, space, module, seed)
    R = rep_from_bimodule(B)
    assert R.algebra == commutator_superalgebra(B.algebra) and R.space == module
    assert [m.matrix for m in R.action] == oracle_rep_from_bimodule(B)
    assert [m.parity for m in R.action] == list(space.parities())


def test_rep_from_bimodule_regular_is_adjoint_of_commutator():
    for A in (fixtures.split_octonions(), fixtures.clifford_1_1()):
        R = rep_from_bimodule(regular_bimodule(A))
        adC = adjoint_representation(commutator_superalgebra(A))
        assert all(x.matrix == y.matrix for x, y in zip(R.action, adC.action))
        assert check_malcev_representation(R).ok


def test_left_multiplication_representation_of_pre_malcev():
    for P in (fixtures.pre_lie_sl2(), fixtures.pre_malcev_1_1()):
        L = left_multiplication_representation(P)
        assert check_malcev_representation(L).ok


# -- equivalence ----------------------------------------------------------------


def test_are_equivalent_identity_and_scalar():
    R = adjoint_representation(fixtures.sl2())
    phi = GradedLinearMap.identity(R.space)
    assert are_equivalent(R, R, phi).ok
    assert are_equivalent(R, R, 3 * phi).ok


def test_are_equivalent_checks_shapes_before_preconditions():
    A = fixtures.sl2()
    ad = adjoint_representation(A)
    V = SuperSpace(2, 0)
    zero = Representation(A, V, tuple(GradedLinearMap.zero(V, V, 0) for _ in range(3)))
    W = SuperSpace(1, 1)
    zero_w = Representation(A, W, tuple(GradedLinearMap.zero(W, W, 0) for _ in range(3)))
    point = Superalgebra(SuperSpace(1, 0), {"mul": {}})
    on_point = Representation(point, V, (GradedLinearMap.zero(V, V, 0),))
    for R, Rp, phi in ((ad, zero, GradedLinearMap.identity(V)),
                       (zero, ad, GradedLinearMap.identity(ad.space)),
                       (zero, zero_w, GradedLinearMap.zero(V, V, 0)),
                       (zero, on_point, GradedLinearMap.identity(V))):
        with pytest.raises(DimensionMismatch, match="^equivalence: "):
            are_equivalent(R, Rp, phi)


def test_are_equivalent_negative_and_preconditions():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    D = dual_representation(R)
    phi = GradedLinearMap.identity(R.space)
    assert not are_equivalent(R, D, phi).ok
    singular = GradedLinearMap.zero(R.space, R.space, 0)
    report = are_equivalent(R, R, singular)
    assert report.precondition_failures == ("phi is not bijective",)


# -- residuals of which some components cancel exactly and others do not ------


def one_entry_changed(maps, k):
    """``maps`` with 1 added to the first nonzero entry of map k: the terms of
    an identity still cancel exactly wherever they do not read that entry."""
    m = maps[k]
    r, c = next((r, c) for r, row in enumerate(m.matrix) for c, x in enumerate(row) if x)
    rows = [list(row) for row in m.matrix]
    rows[r][c] += 1
    return maps[:k] + (GradedLinearMap(m.domain, m.codomain, rows, m.parity),) + maps[k + 1:]


def test_module_checkers_match_oracles_where_some_components_cancel():
    # H (x) Lambda(xi1) is associative, so its regular bimodule is alternative
    # and the coadjoint action of its commutator a Malcev representation
    A = fixtures.tensor_grassmann(fixtures.quaternions(), 1)
    C, odd = commutator_superalgebra(A), A.space.dim - 1  # k (x) xi1, not central in C
    co, B = coadjoint_representation(C), regular_bimodule(A)
    assert check_malcev_representation(co).ok and check_alternative_bimodule(B).ok
    R = Representation(C, co.space, one_entry_changed(co.action, odd))
    expected = oracle_rep_witnesses(R)
    assert len(expected) < 8 ** 3
    for limit in (1, 3, 10 ** 6):
        assert_matches_oracle(check_malcev_representation(R, witness_limit=limit),
                              expected, 8 ** 3, limit)
    for changed in (Bimodule(A, A.space, one_entry_changed(B.left, odd), B.right),
                    Bimodule(A, A.space, B.left, one_entry_changed(B.right, odd))):
        expected = oracle_bimodule_witnesses(changed)
        assert len({w[1:3] for w, _ in expected}) < 8 ** 2
        for limit in (1, 3, 10 ** 6):
            assert_matches_oracle(check_alternative_bimodule(changed, witness_limit=limit),
                                  expected, 8 ** 2, limit)


@pytest.mark.parametrize("space, module, seed", [
    (SuperSpace(2, 2), SuperSpace(2, 2), 3), (SuperSpace(3, 3), SuperSpace(1, 2), 4)])
def test_are_equivalent_matches_the_dense_oracle_on_odd_inputs(space, module, seed):
    A = fixtures.random_product(space, seed)
    R = Representation(A, module, fixtures.random_action_maps(A, module, seed + 10))
    phi = GradedLinearMap(module, module, even_unimodular(module, seed), 0)
    assert are_equivalent(R, conjugated(R, phi), phi).ok
    odd = space.dim - 1  # an odd basis element of A
    for Rp in (Representation(A, module, fixtures.random_action_maps(A, module, seed + 20)),
               # equivalent but for one entry: most columns cancel exactly
               Representation(A, module, one_entry_changed(conjugated(R, phi).action, odd))):
        expected = oracle_equivalence_witnesses(R, Rp, phi)
        assert expected
        for limit in (1, 3, 10 ** 6):
            report = are_equivalent(R, Rp, phi, witness_limit=limit)
            assert report.violation_count == len(expected)
            assert report.checked_tuples == space.dim
            assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


# -- one walk over module columns ----------------------------------------------


def test_every_module_checker_walks_its_columns_in_the_one_walker(monkeypatch):
    # on a dense input each checker hands every tuple, in order, to
    # reps._witness_first_column and loops over no module column of its own:
    # n^3 calls for the representation identity, 4 n^2 for the bimodule ones,
    # n for an equivalence
    A, V = fixtures.random_product(SuperSpace(2, 1), 3), SuperSpace(1, 2)
    n = A.space.dim
    R = Representation(A, V, fixtures.random_action_maps(A, V, 13))
    B = Bimodule(A, V, R.action, fixtures.random_action_maps(A, V, 23))
    for check, args, count, tuples in (
            (check_malcev_representation, (R,), n ** 3, itertools.product(range(n), repeat=3)),
            (check_alternative_bimodule, (B,), 4 * n ** 2,
             ((q, i, j) for i, j in itertools.product(range(n), repeat=2) for q in range(4))),
            (are_equivalent, (R, R, GradedLinearMap.identity(V)), n, ((i,) for i in range(n)))):
        _, walked = walker_visits(monkeypatch, check, *args)
        assert len(walked) == count
        assert walked == list(tuples)


# -- the walkers visit only the tuples whose terms can be nonzero ---------------


def one_bracket(space, x, y, z):
    """The algebra whose only nonzero constants are [b_x, b_y] = b_z and its
    mirror [b_y, b_x] = -(-1)^{|x||y|} b_z."""
    par = space.parities()
    return Superalgebra(space, {"mul": {(x, y): {z: 1}, (y, x): {z: -sgn(par[x], par[y])}}})


def rep_tuples_with_a_nonzero_term(R):
    """The triples at which some term of the representation identity has all
    of its factors nonzero, in order, from the dense table and matrices: the
    factor of rho((xy)z) is xy, those of rho(y)rho(zx) are rho(y) and zx."""
    table, n = R.algebra.table("mul"), R.algebra.space.dim
    acts = [not is_zero_matrix(m.matrix) for m in R.action]
    found = []
    for i, j, k in itertools.product(range(n), repeat=3):
        xy, yz, zx = any(table[i][j]), any(table[j][k]), any(table[k][i])
        terms = ((xy,), (acts[i], acts[j], acts[k]), (acts[j], zx), (yz, acts[i]))
        if any(all(factors) for factors in terms):
            found.append((i, j, k))
    return found


def bimodule_tuples_with_a_nonzero_term(B):
    """The (identity#, i, j) of the pairs at which some term of some bimodule
    identity has all of its factors nonzero, in order."""
    table, n = B.algebra.table("mul"), B.algebra.space.dim
    ls, rs = ([not is_zero_matrix(m.matrix) for m in maps] for maps in (B.left, B.right))
    found = []
    for i, j in itertools.product(range(n), repeat=2):
        xy, yx = any(table[i][j]), any(table[j][i])
        terms = ((xy,), (yx,), (ls[i], ls[j]), (rs[i], rs[j]), (rs[j], ls[i]))
        if any(all(factors) for factors in terms):
            found += [(q, i, j) for q in range(4)]
    return found


def test_the_module_walkers_visit_exactly_the_tuples_with_a_term_of_nonzero_factors(monkeypatch):
    A = one_bracket(SuperSpace(4, 4), 0, 1, 2)
    # (check, module, the brute force, tuples, walker calls on a dense input)
    for check, M, brute_force, tuples, calls in (
            (check_malcev_representation, adjoint_representation(A),
             rep_tuples_with_a_nonzero_term, 8 ** 3, 8 ** 3),
            (check_alternative_bimodule, regular_bimodule(A),
             bimodule_tuples_with_a_nonzero_term, 8 ** 2, 4 * 8 ** 2)):
        report, walked = walker_visits(monkeypatch, check, M)
        assert report.ok and report.checked_tuples == tuples
        assert walked == brute_force(M)
        assert 0 < len(walked) < calls // 4
    # x acting by r only and y by l only: every term at (x, y) has a zero factor
    V, one = SuperSpace(1, 0), GradedLinearMap(SuperSpace(1, 0), SuperSpace(1, 0), ((1,),))
    zero = GradedLinearMap.zero(V, V)
    B = Bimodule(Superalgebra(SuperSpace(2, 0), {"mul": {}}), V, (zero, one), (one, zero))
    report, walked = walker_visits(monkeypatch, check_alternative_bimodule, B)
    assert walked == bimodule_tuples_with_a_nonzero_term(B)
    assert (0, 0, 1) not in walked


def acting_on(maps, acting):
    """``maps`` with the map of every basis element outside ``acting`` set to zero."""
    return tuple(m if i in acting else GradedLinearMap.zero(m.domain, m.codomain, m.parity)
                 for i, m in enumerate(maps))


def some_rows(A, seed):
    """A with a seeded half of its nonzero rows kept."""
    rng = random.Random(seed)
    return Superalgebra(A.space, {"mul": {key: row for key, row in A.rows().items()
                                          if rng.random() < 0.5}})


def partly_acting(space, module, seed, left, right=None):
    """A seeded product with about half its rows kept, and a seeded action by
    which only the basis elements in ``left`` act; with ``right``, a
    bimodule whose right action is nonzero only there."""
    A = some_rows(fixtures.random_product(space, seed), seed)
    odd = {i for i, p in enumerate(space.parities()) if p}
    assert 0 < len(A.rows()) < space.dim ** 2
    for acting in (left, right or left):  # odd elements act, and odd elements do not
        assert odd & acting and odd - acting
    action = acting_on(fixtures.random_action_maps(A, module, seed + 10), left)
    if right is None:
        return Representation(A, module, action)
    return Bimodule(A, module, action,
                    acting_on(fixtures.random_action_maps(A, module, seed + 20), right))


def dense_module(space, module, seed, bimodule=False):
    """A seeded algebra with every parity-allowed constant and every
    parity-allowed entry of every map 1 or 2: a small algebra on a larger
    dense module builds whole pair tables while its walk stops early."""
    A = fixtures.random_product(space, seed, 1, 2)
    action = fixtures.random_action_maps(A, module, seed + 10, 1, 2)
    if bimodule:
        return Bimodule(A, module, action, fixtures.random_action_maps(A, module, seed + 20, 1, 2))
    return Representation(A, module, action)


def one_bracket_module(space, bracket, seed, bimodule=False):
    """A seeded action on the one-bracket algebra by the elements of the
    bracket and one more, on a 2|1 module."""
    A, V = one_bracket(space, *bracket), SuperSpace(2, 1)
    acting = {*bracket[:2], space.dim - 1}
    action = acting_on(fixtures.random_action_maps(A, V, seed), acting)
    if bimodule:
        return Bimodule(A, V, action, acting_on(fixtures.random_action_maps(A, V, seed + 1),
                                                acting))
    return Representation(A, V, action)


# (the one-bracket algebra's space, its bracket (x, y, z)); at 2|2 an even
# and an odd element bracket to an odd one, at 3|3 two odd ones to an even one
ONE_BRACKETS = [(SuperSpace(2, 2), (0, 2, 3)), (SuperSpace(3, 3), (0, 1, 2)),
                (SuperSpace(3, 3), (3, 4, 0))]

# (id, build, holds)
WALK_INPUTS = [
    ("rep 2|2 on 2|1", lambda: partly_acting(SuperSpace(2, 2), SuperSpace(2, 1), 3, {0, 2}),
     False),
    ("rep 3|3 on 1|2", lambda: partly_acting(SuperSpace(3, 3), SuperSpace(1, 2), 4,
                                             {0, 2, 3, 5}), False),
    ("bimodule 2|2 on 2|1", lambda: partly_acting(SuperSpace(2, 2), SuperSpace(2, 1), 5,
                                                  {0, 2}, {0, 3}), False),
    ("bimodule 3|3 on 1|2", lambda: partly_acting(SuperSpace(3, 3), SuperSpace(1, 2), 6,
                                                  {0, 3}, {1, 3}), False),
    ("dense rep 2|2 on 3|3", lambda: dense_module(SuperSpace(2, 2), SuperSpace(3, 3), 1), False),
    ("dense bimodule 1|1 on 3|3", lambda: dense_module(SuperSpace(1, 1), SuperSpace(3, 3), 2,
                                                       bimodule=True), False),
] + [(f"{kind} one-bracket {space.even_dim}|{space.odd_dim} {bracket}", build, holds)
     for space, bracket in ONE_BRACKETS
     for kind, build, holds in (
         ("adjoint", lambda s=space, b=bracket: adjoint_representation(one_bracket(s, *b)), True),
         ("regular", lambda s=space, b=bracket: regular_bimodule(one_bracket(s, *b)), True),
         ("seeded rep", lambda s=space, b=bracket: one_bracket_module(s, b, 7), False),
         ("seeded bimodule", lambda s=space, b=bracket: one_bracket_module(s, b, 8, True),
          False))]


@pytest.mark.parametrize("build, holds", [pytest.param(build, holds, id=name)
                                          for name, build, holds in WALK_INPUTS])
def test_module_checkers_match_oracles_on_partly_acting_and_dense_inputs(build, holds):
    M = build()
    if isinstance(M, Representation):
        check, oracle, degree = check_malcev_representation, oracle_rep_witnesses, 3
    else:
        check, oracle, degree = check_alternative_bimodule, oracle_bimodule_witnesses, 2
    expected = oracle(M)
    assert not expected if holds else expected
    for limit in (1, 3, 10 ** 6):
        report = check(M, witness_limit=limit)
        assert report.violation_count == len(expected)
        assert report.checked_tuples == M.algebra.space.dim ** degree
        assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


# -- metamorphic: the module verdicts in other bases ---------------------------


def transported(maps, P, S):
    """An action in the bases b'_j = sum_i P[i][j] b_i of A and the columns of
    the even bijection S of V: rho'(b'_j) = S^-1 (sum_i P[i][j] rho(b_i)) S."""
    inverse = S.inverse()
    out = []
    for j, m in enumerate(maps):
        combined = GradedLinearMap.zero(m.domain, m.codomain, m.parity)
        for i, other in enumerate(maps):
            if P[i][j]:
                combined = combined + P[i][j] * other
        out.append(inverse.compose(combined).compose(S))
    return tuple(out)


def unimodular_map(space, seed):
    return GradedLinearMap(space, space, even_unimodular(space, seed), 0)


def seeded_2_1(seed, bimodule=False):
    A, V = fixtures.random_product(SuperSpace(2, 1), seed), SuperSpace(2, 1)
    action = fixtures.random_action_maps(A, V, seed + 10)
    if bimodule:
        return Bimodule(A, V, action, fixtures.random_action_maps(A, V, seed + 20))
    return Representation(A, V, action)


# (name, module, holds): the coadjoint representation of [O] and the Zorn
# regular bimodule hold; so do those of H (x) Lambda(xi1), which has odd
# elements; the seeded 2|1 modules fail
REPRESENTATION_CASES = [
    ("coadjoint [O]", lambda: coadjoint_representation(
        commutator_superalgebra(fixtures.split_octonions())), True),
    ("coadjoint [H x L1]", lambda: coadjoint_representation(
        commutator_superalgebra(fixtures.tensor_grassmann(fixtures.quaternions(), 1))), True),
    ("2|1 representation", lambda: seeded_2_1(3), False),
]
BIMODULE_CASES = [
    ("Zorn regular", lambda: regular_bimodule(fixtures.zorn_split_octonions()), True),
    ("H x L1 regular", lambda: regular_bimodule(
        fixtures.tensor_grassmann(fixtures.quaternions(), 1)), True),
    ("2|1 bimodule", lambda: seeded_2_1(4, bimodule=True), False),
]


@pytest.mark.parametrize("build, holds", [pytest.param(build, holds, id=name) for name, build, holds
                                          in REPRESENTATION_CASES + BIMODULE_CASES])
def test_module_verdicts_do_not_depend_on_the_bases(build, holds):
    """Rebasing A by an even unimodular P and V by an even unimodular S keeps
    every verdict; the counts may move with the basis."""
    M = build()
    A, V = M.algebra, M.space
    P, S = even_unimodular(A.space, 5), unimodular_map(V, 6)
    assert any(P[i][j] for i in range(A.space.dim) for j in range(A.space.dim) if i != j)
    Ap = rebased(A, P)
    if isinstance(M, Representation):
        check, Mp = check_malcev_representation, Representation(
            Ap, V, transported(M.action, P, S))
    else:
        check, Mp = check_alternative_bimodule, Bimodule(
            Ap, V, transported(M.left, P, S), transported(M.right, P, S))
    assert check(M).ok is check(Mp).ok is holds


@pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                   for name, build, _ in REPRESENTATION_CASES])
def test_a_representation_transported_on_v_alone_is_equivalent_through_s(build):
    R = build()
    n = R.algebra.space.dim
    S = unimodular_map(R.space, 7)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    Rp = Representation(R.algebra, R.space, transported(R.action, identity, S))
    assert are_equivalent(Rp, R, S).ok
    # b_{n-1} acts as a nonzero map in each case, and an odd one where A has odd elements
    changed = Representation(R.algebra, R.space, one_entry_changed(Rp.action, n - 1))
    assert not are_equivalent(changed, R, S).ok


# -- packed residual columns ---------------------------------------------------

EDGE = 3 ** 13  # an entry that is no power of 2, so no bound below is one


def on_2_0(*matrices):
    """Even maps on the module 2|0, one per matrix."""
    V = SuperSpace(2, 0)
    return tuple(GradedLinearMap(V, V, m) for m in matrices)


def at_the_slot_bound(N):
    """caller -> (check, its arguments, the oracle's witnesses, the slot
    bound).  Every scaled row and column has one entry, of absolute value N,
    so N is the largest l1 norm, and at one tuple every term adds N^k to
    entry (0, 0) of column 0 with the same sign: the coefficient there is
    the bound itself, and a slot one bit narrower does not hold it."""
    swap, flip, one = ((0, N), (N, 0)), ((N, 0), (0, -N)), ((N, 0), (0, N))
    minus_swap, minus_one = ((0, -N), (-N, 0)), ((-N, 0), (0, -N))
    # at (0, 1, 0), in units of N with P the swap and Q the flip:
    # rho((xy)z) = rho(b2), -rho(x)rho(y)rho(z) = -PQP = Q,
    # rho(z)rho(x)rho(y) = PPQ = Q, -rho(y)rho(zx) = -Q rho(b3) = Q and
    # rho(yz)rho(x) = PP, each 1 at (0, 0)
    A = Superalgebra(SuperSpace(4, 0), {"mul": {
        (0, 0): {3: N}, (0, 1): {2: N}, (1, 0): {0: N}, (2, 0): {2: N}}})
    R = Representation(A, SuperSpace(2, 0), on_2_0(swap, flip, one, minus_one))
    # at (0, 0), identity 0: 2 l(b0 b0) - 2 l(b0)^2 = -2 N^2 - 2 N^2 at (0, 0)
    A = Superalgebra(SuperSpace(2, 0), {"mul": {(0, 0): {1: N}}})
    B = Bimodule(A, SuperSpace(2, 0), on_2_0(swap, minus_one), on_2_0(flip, swap))
    # phi rho(b0) - rho'(b0) phi = N^2 + N^2 at (0, 0)
    A = Superalgebra(SuperSpace(1, 0), {"mul": {}})
    R0, R1 = (Representation(A, SuperSpace(2, 0), on_2_0(m)) for m in (swap, minus_swap))
    phi = on_2_0(swap)[0]
    return {
        "representation": (check_malcev_representation, (R,), oracle_rep_witnesses(R),
                           5 * N ** 3),
        "bimodule": (check_alternative_bimodule, (B,), oracle_bimodule_witnesses(B), 4 * N ** 2),
        "equivalence": (are_equivalent, (R0, R1, phi), oracle_equivalence_witnesses(R0, R1, phi),
                        2 * N ** 2),
    }


def witnesses(report):
    return [(w, list(v.coords)) for w, v in report.witnesses]


@pytest.mark.parametrize("caller", ["representation", "bimodule", "equivalence"])
def test_module_walkers_match_the_oracles_at_the_edge_of_their_slot_bound(caller, monkeypatch):
    check, args, expected, bound = at_the_slot_bound(EDGE)[caller]
    assert max(abs(c) for _, column in expected for c in column) == bound
    for limit in (1, 3, 10 ** 6):
        report = check(*args, witness_limit=limit)
        assert report.violation_count == len(expected)
        assert witnesses(report) == expected[:limit]
    # the input reaches the bound: one bit short, a slot overflows into the next
    width = reps.slot_width
    monkeypatch.setattr(reps, "slot_width", lambda *bound_args: width(*bound_args) - 1)
    assert witnesses(check(*args, witness_limit=10 ** 6)) != expected


def over_primes(maps, primes):
    """``maps`` with each nonzero entry divided by the next of ``primes``."""
    return tuple(GradedLinearMap(m.domain, m.codomain, [[x / next(primes) if x else x
                                                          for x in row] for row in m.matrix],
                                 m.parity) for m in maps)


def test_module_walkers_match_the_oracles_on_actions_over_distinct_primes():
    # every nonzero entry of the actions and of phi has its own 7-digit prime
    # denominator, so D is their product and a packed slot several thousand bits
    space, module = SuperSpace(2, 1), SuperSpace(1, 2)
    A = fixtures.random_product(space, 3)
    primes = seven_digit_primes()
    left, right = (over_primes(fixtures.random_action_maps(A, module, seed), primes)
                   for seed in (13, 23))
    phi, = over_primes((GradedLinearMap(module, module, even_unimodular(module, 3)),), primes)
    constants = [c for c in map_constants(*left, *right, phi) if c]
    assert len({c.denominator for c in constants}) == len(constants) > 20
    R, B = Representation(A, module, left), Bimodule(A, module, left, right)
    Rp = Representation(A, module, right)
    assert are_equivalent(R, conjugated(R, phi), phi).ok
    for check, args, expected in (
            (check_malcev_representation, (R,), oracle_rep_witnesses(R)),
            (check_alternative_bimodule, (B,), oracle_bimodule_witnesses(B)),
            (are_equivalent, (R, Rp, phi), oracle_equivalence_witnesses(R, Rp, phi))):
        assert expected
        for limit in (1, 3, 10 ** 6):
            report = check(*args, witness_limit=limit)
            assert report.violation_count == len(expected)
            assert witnesses(report) == expected[:limit]


def test_the_module_walkers_multiply_adds_are_pinned(monkeypatch):
    # one product per packed term of a residual column and per entry summed
    # into a packed pair column; the parent merged a sparse column per term
    zorn = regular_bimodule(fixtures.zorn_split_octonions())
    coadjoint = coadjoint_representation(commutator_superalgebra(fixtures.split_octonions()))
    for check, module, count in ((check_alternative_bimodule, zorn, 4096),
                                 (check_malcev_representation, coadjoint, 9660)):
        report, work = multiply_adds(monkeypatch, check, module)
        assert report.ok and work == count
