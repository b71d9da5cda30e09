"""O-operators, Rota-Baxter operators, forms, and the pre-Malcev /
pre-alternative constructions, with grid searches as example generators."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from supermalcev import (
    BilinearForm,
    Bimodule,
    DimensionMismatch,
    FormFlags,
    GradedLinearMap,
    IdentityViolation,
    ParityViolation,
    Representation,
    SuperSpace,
    Superalgebra,
    adjoint_representation,
    canonical_r,
    check_malcev,
    check_o_operator_alternative,
    check_o_operator_malcev,
    check_pre_alternative,
    check_pre_malcev,
    check_rota_baxter,
    check_symplectic,
    classify_form,
    coadjoint_representation,
    commutator_superalgebra,
    compatible_pre_malcev_from_invertible_oop,
    induced_structure_on_image,
    koszul_sign,
    left_multiplication_representation,
    pre_alternative_from_o_operator,
    pre_malcev_from_invertible_rota_baxter,
    pre_malcev_from_o_operator,
    pre_malcev_from_pre_alternative,
    pre_malcev_from_rota_baxter,
    pre_malcev_from_symplectic,
    regular_bimodule,
    rep_from_bimodule,
    search_o_operators_alternative,
    search_o_operators_malcev,
    search_rota_baxter,
    semidirect_malcev,
    symplectic_from_r,
)
from supermalcev import fixtures
from supermalcev import _linalg
from rational_inputs import (
    algebra_constants,
    denominator,
    map_constants,
    rational_action,
    rational_operator,
    rational_product,
    rebased,
)
from supermalcev.operators import (
    _bimodule_context,
    _rep_context,
    _residual_forms,
    _residuals,
    _rota_baxter_context,
)

Z = Fraction(0)


def nonzero(T):
    return any(c != 0 for row in T.matrix for c in row)


def diag_map(space, entries):
    n = space.dim
    return GradedLinearMap(
        space, space,
        tuple(tuple(Fraction(entries[i]) if i == j else Z for j in range(n))
              for i in range(n)),
        0,
    )


# -- O-operator checkers ------------------------------------------------------


def test_zero_operator_is_o_operator():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    T = GradedLinearMap.zero(A.space, A.space, 0)
    assert check_o_operator_malcev(T, R).ok


def test_identity_is_o_operator_for_left_multiplication():
    for P in (fixtures.pre_lie_sl2(), fixtures.pre_malcev_1_1()):
        L = left_multiplication_representation(P)
        assert check_o_operator_malcev(GradedLinearMap.identity(P.space), L).ok


def test_identity_is_o_operator_for_adjoint_only_if_abelian():
    abelian = fixtures.zero_algebra(2, 1)
    assert check_o_operator_malcev(
        GradedLinearMap.identity(abelian.space),
        adjoint_representation(abelian)).ok
    sl2 = fixtures.sl2()
    assert not check_o_operator_malcev(
        GradedLinearMap.identity(sl2.space), adjoint_representation(sl2)).ok


def test_seeded_operator_candidate_generically_fails():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    T = fixtures.random_even_matrix(A.space, A.space, 0, __import__("random").Random(1))
    assert not check_o_operator_malcev(T, R).ok


def test_operator_dimensions_must_match_module_and_algebra():
    A = fixtures.zero_algebra(1, 0)
    V = SuperSpace(2, 0)
    R = Representation(A, V, (GradedLinearMap.zero(V, V, 0),))
    B = Bimodule(A, V, R.action, R.action)
    wrong = (
        GradedLinearMap.identity(A.space),  # domain A (1|0) instead of V (2|0)
        GradedLinearMap.zero(V, SuperSpace(2, 0), 0),  # codomain (2|0), A is (1|0)
        GradedLinearMap.zero(SuperSpace(1, 1), A.space, 0),  # same total dim as V
    )
    for T in wrong:
        with pytest.raises(DimensionMismatch):
            check_o_operator_malcev(T, R)
        with pytest.raises(DimensionMismatch):
            check_o_operator_alternative(T, B)
        with pytest.raises(DimensionMismatch):
            pre_malcev_from_o_operator(T, R)
    with pytest.raises(DimensionMismatch):
        check_rota_baxter(GradedLinearMap.zero(V, A.space, 0), A)
    # dimensions are compared, not basis labels
    relabelled = SuperSpace(2, 0, ("u", "w"))
    assert check_o_operator_malcev(GradedLinearMap.zero(relabelled, A.space, 0), R).ok


def test_odd_candidate_flagged():
    A = fixtures.heisenberg_1_1()
    R = adjoint_representation(A)
    odd = GradedLinearMap(A.space, A.space, ((0, 1), (1, 0)), 1)
    report = check_o_operator_malcev(odd, R)
    assert report.precondition_failures and not report.ok


def test_alternative_o_operator_zero_and_rb():
    Zorn = fixtures.zorn_split_octonions()
    B = regular_bimodule(Zorn)
    T0 = GradedLinearMap.zero(Zorn.space, Zorn.space, 0)
    assert check_o_operator_alternative(T0, B).ok
    # identity map on the regular bimodule of the zero algebra
    zero_alg = fixtures.zero_algebra(2, 0)
    assert check_o_operator_alternative(
        GradedLinearMap.identity(zero_alg.space), regular_bimodule(zero_alg)).ok


# -- Rota-Baxter ----------------------------------------------------------------


def test_rota_baxter_trivial_cases():
    A = fixtures.sl2()
    zero = GradedLinearMap.zero(A.space, A.space, 0)
    assert check_rota_baxter(zero, A).ok
    assert check_rota_baxter(zero, A, sign_variant=True).ok
    abelian = fixtures.zero_algebra(2, 2)
    any_even = diag_map(abelian.space, [3, -1, 2, 5])
    assert check_rota_baxter(any_even, abelian).ok
    assert check_rota_baxter(any_even, abelian, sign_variant=True).ok


def test_grid_searched_rb_on_sl2():
    A = fixtures.sl2()
    found = search_rota_baxter(A, values=(-1, 0, 1))
    assert any(nonzero(T) for T in found)
    for T in found:
        assert check_rota_baxter(T, A).ok
    assert any(T.matrix == fixtures.rb_sl2_nilpotent().matrix for T in found)


def test_sign_variant_differs_on_odd_pairs():
    # diag(1, 2) on the Heisenberg bracket satisfies the unsigned identity
    # but not the Koszul-signed display (they differ only on odd-odd pairs)
    A = fixtures.heisenberg_1_1()
    R = diag_map(A.space, [1, 2])
    assert check_rota_baxter(R, A).ok
    signed = check_rota_baxter(R, A, sign_variant=True)
    assert not signed.ok
    assert signed.identity == "rota-baxter-signed"


def test_rb_is_o_operator_for_adjoint():
    A = fixtures.sl2()
    rb = fixtures.rb_sl2_nilpotent()
    assert check_o_operator_malcev(rb, adjoint_representation(A)).ok


# -- oracle: the O-operator identity expanded from dense matrices ---------------


def _mat_comb(mats, coords, n):
    out = _linalg.zero_matrix(n, n)
    for m, c in zip(mats, coords):
        if c != 0:
            out = _linalg.mat_add(out, _linalg.mat_scale(c, m))
    return out


def oracle_o_operator_failures(T, context, sign_variant=False, product="mul"):
    """Failing basis pairs (a, b) of m(Ta, Tb) = T(left(Ta) b + s right(Tb) a),
    in lexicographic order with their leftovers, and the number of pairs.

    A Representation acts on both sides with s = -(-1)^{|a||b|}; a Bimodule
    uses its left and right actions with s = 1; an algebra acts on itself
    (the Rota-Baxter identity) by left and right multiplication with s = 1,
    or s = (-1)^{|a||b|} for the signed variant.
    """
    if isinstance(context, Representation):
        A, V = context.algebra, context.space
        left = right = [m.matrix for m in context.action]
        sign = lambda p, q: -koszul_sign(p, q)
    elif isinstance(context, Bimodule):
        A, V = context.algebra, context.space
        left = [m.matrix for m in context.left]
        right = [m.matrix for m in context.right]
        sign = lambda p, q: 1
    else:
        A, V = context, context.space
        table = A.table(product)
        n = V.dim
        left = [tuple(tuple(table[k][c][r] for c in range(n)) for r in range(n))
                for k in range(n)]
        right = [tuple(tuple(table[c][k][r] for c in range(n)) for r in range(n))
                 for k in range(n)]
        sign = koszul_sign if sign_variant else (lambda p, q: 1)
    table = A.table(product)
    nA, nV = A.space.dim, V.dim
    cols = _linalg.transpose(T.matrix)
    fails = []
    for a, b in itertools.product(range(nV), repeat=2):
        Ta, Tb = cols[a], cols[b]
        lhs = [sum((Ta[p] * Tb[q] * table[p][q][k]
                    for p in range(nA) for q in range(nA)), Z) for k in range(nA)]
        la, rb = _mat_comb(left, Ta, nV), _mat_comb(right, Tb, nV)
        s = sign(V.parity(a), V.parity(b))
        inner = [la[r][b] + s * rb[r][a] for r in range(nV)]
        res = [x - y for x, y in zip(lhs, _linalg.mat_vec(T.matrix, inner))]
        if any(res):
            fails.append(((a, b), A.space.vector(res)))
    return fails, nV * nV


def assert_matches_oracle(report, oracle, limit):
    fails, checked = oracle
    assert report.violation_count == len(fails)
    assert report.checked_tuples == checked
    assert report.witnesses == tuple(fails[:limit])
    assert not report.precondition_failures


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_o_operator_checkers_match_oracle_on_random_2_2(seed):
    S = SuperSpace(2, 2)
    A = fixtures.random_product(S, seed)
    A2 = fixtures.random_product(S, seed, two_products=True)
    V = SuperSpace(2, 2)
    R = Representation(A, V, fixtures.random_action_maps(A, V, seed))
    B = Bimodule(A, V, fixtures.random_action_maps(A, V, seed + 10),
                 fixtures.random_action_maps(A, V, seed + 20))
    rng = random.Random(seed)
    T = fixtures.random_even_matrix(V, S, 0, rng)
    Rop = fixtures.random_even_matrix(S, S, 0, rng)
    for limit in (3, 64):
        cases = [
            (check_o_operator_malcev(T, R, witness_limit=limit),
             oracle_o_operator_failures(T, R)),
            (check_o_operator_alternative(T, B, witness_limit=limit),
             oracle_o_operator_failures(T, B)),
            (check_rota_baxter(Rop, A, witness_limit=limit),
             oracle_o_operator_failures(Rop, A)),
            (check_rota_baxter(Rop, A, sign_variant=True, witness_limit=limit),
             oracle_o_operator_failures(Rop, A, sign_variant=True)),
            (check_rota_baxter(Rop, Superalgebra(A2.space, {"mul": A2.rows("succ")}),
                               witness_limit=limit),
             oracle_o_operator_failures(Rop, A2, product="succ")),
        ]
        for report, oracle in cases:
            assert oracle[0], "seeded inputs must violate the identity"
            assert_matches_oracle(report, oracle, limit)


@pytest.mark.parametrize("shape, seed", [((2, 2), 5), ((3, 3), 6)])
def test_o_operator_checkers_match_oracle_with_denominators(shape, seed):
    # algebra constants over 2 and 3, actions over 5 (left 4, right 5) and
    # operators over 4
    S = SuperSpace(*shape)
    A = rational_product(S, seed)
    A2 = rational_product(S, seed, two_products=True)
    V = SuperSpace(2, 2)
    R = Representation(A, V, rational_action(A, V, seed))
    B = Bimodule(A, V, rational_action(A, V, seed + 10, "left"),
                 rational_action(A, V, seed + 20, "right"))
    T = rational_operator(V, S, seed)
    Rop = rational_operator(S, S, seed + 1)
    assert denominator(*algebra_constants(A), *map_constants(T, *R.action)) == 60
    assert denominator(*algebra_constants(A), *map_constants(T, *B.left, *B.right)) == 60
    assert denominator(*algebra_constants(A2), *map_constants(Rop)) == 12
    for limit in (3, 10 ** 6):
        cases = [
            (check_o_operator_malcev(T, R, witness_limit=limit),
             oracle_o_operator_failures(T, R)),
            (check_o_operator_alternative(T, B, witness_limit=limit),
             oracle_o_operator_failures(T, B)),
            (check_rota_baxter(Rop, A, witness_limit=limit),
             oracle_o_operator_failures(Rop, A)),
            (check_rota_baxter(Rop, A, sign_variant=True, witness_limit=limit),
             oracle_o_operator_failures(Rop, A, sign_variant=True)),
            (check_rota_baxter(Rop, Superalgebra(A2.space, {"mul": A2.rows("succ")}),
                               witness_limit=limit),
             oracle_o_operator_failures(Rop, A2, product="succ")),
        ]
        for report, oracle in cases:
            assert oracle[0], "seeded inputs must violate the identity"
            assert_matches_oracle(report, oracle, limit)


def test_o_operator_checkers_match_oracle_on_passing_cases():
    sl2, heis = fixtures.sl2(), fixtures.heisenberg_1_1()
    rb = fixtures.rb_sl2_nilpotent()
    P = fixtures.pre_malcev_1_1()
    L = left_multiplication_representation(P)
    ident = GradedLinearMap.identity(P.space)
    Zorn, BZ, found = _zorn_rb_operators()
    d12 = diag_map(heis.space, [1, 2])
    cases = [
        (check_o_operator_malcev(ident, L), oracle_o_operator_failures(ident, L)),
        (check_o_operator_malcev(rb, adjoint_representation(sl2)),
         oracle_o_operator_failures(rb, adjoint_representation(sl2))),
        (check_o_operator_alternative(found[0], BZ), oracle_o_operator_failures(found[0], BZ)),
        (check_rota_baxter(rb, sl2, sign_variant=True),
         oracle_o_operator_failures(rb, sl2, sign_variant=True)),
        (check_rota_baxter(d12, heis), oracle_o_operator_failures(d12, heis)),
    ]
    for report, oracle in cases:
        assert report.ok
        assert_matches_oracle(report, oracle, 16)
    # the signed variant fails diag(1, 2) on the odd-odd pair only
    signed = oracle_o_operator_failures(d12, heis, sign_variant=True)
    assert [ab for ab, _ in signed[0]] == [(1, 1)]
    assert_matches_oracle(check_rota_baxter(d12, heis, sign_variant=True), signed, 16)


# -- constructions ----------------------------------------------------------------


def test_pre_malcev_from_zero_operator():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    P = pre_malcev_from_o_operator(GradedLinearMap.zero(A.space, A.space, 0), R)
    assert all(c == 0 for plane in P.table("mul") for row in plane for c in row)


def test_pre_malcev_from_identity_on_left_mult_recovers_product():
    P = fixtures.pre_lie_sl2()
    L = left_multiplication_representation(P)
    Q = pre_malcev_from_o_operator(GradedLinearMap.identity(P.space), L)
    assert Q.table("mul") == P.table("mul")


def test_grid_searched_o_operators_give_pre_malcev():
    found_total = 0
    contexts = [
        coadjoint_representation(fixtures.sl2()),
        adjoint_representation(fixtures.sl2()),
        adjoint_representation(fixtures.heisenberg_1_1()),
        coadjoint_representation(fixtures.affine_1_1()),
    ]
    for R in contexts:
        for T in search_o_operators_malcev(R, values=(-1, 0, 1)):
            if not nonzero(T):
                continue
            found_total += 1
            P = pre_malcev_from_o_operator(T, R)
            assert check_pre_malcev(P).ok
            assert check_malcev(commutator_superalgebra(P)).ok
    assert found_total >= 10


def test_construction_precondition_raises_with_report():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    with pytest.raises(IdentityViolation) as exc:
        pre_malcev_from_o_operator(GradedLinearMap.identity(A.space), R)
    assert exc.value.report.violation_count > 0


def test_scale_equivariance_of_o_operator_product():
    R = coadjoint_representation(fixtures.sl2())
    candidates = [T for T in search_o_operators_malcev(R, values=(-1, 0, 1))
                  if nonzero(T)]
    T = candidates[0]
    P1 = pre_malcev_from_o_operator(T, R)
    P3 = pre_malcev_from_o_operator(3 * T, R)
    n = R.space.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        assert P3.table("mul")[i][j][k] == 3 * P1.table("mul")[i][j][k]


def test_induced_structure_injective_matches_pushforward():
    P = fixtures.pre_lie_sl2()
    L = left_multiplication_representation(P)
    image = induced_structure_on_image(GradedLinearMap.identity(P.space), L)
    assert image.algebra.table("mul") == P.table("mul")
    assert image.preimage_indices == (0, 1, 2)


def test_induced_structure_zero_operator():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    image = induced_structure_on_image(GradedLinearMap.zero(A.space, A.space, 0), R)
    assert image.algebra.space.dim == 0


def test_induced_structure_rank_deficient():
    A = fixtures.sl2()
    R = adjoint_representation(A)
    rb = fixtures.rb_sl2_nilpotent()  # rank 1, T(f) = e
    image = induced_structure_on_image(rb, R)
    assert image.algebra.space.dim == 1
    # T is a homomorphism onto the image structure on every basis pair
    P = pre_malcev_from_o_operator(rb, R)
    for i in range(3):
        for j in range(3):
            lhs = rb.apply_sparse(P.mul_sparse({i: Fraction(1)}, {j: Fraction(1)}))
            ti = rb.apply_sparse({i: Fraction(1)})
            tj = rb.apply_sparse({j: Fraction(1)})
            # multiply the images inside the image algebra
            emb = image.embedding
            # coordinates of ti, tj in the image basis (here image = span(e))
            def img_coords(v):
                col = [emb.matrix[r][0] for r in range(3)]
                idx = next(r for r, c in enumerate(col) if c != 0)
                return {0: v.get(idx, Z) / col[idx]} if v else {}
            prod = image.algebra.mul_sparse(img_coords(ti), img_coords(tj))
            back = {k: Z for k in range(3)}
            for a, c in prod.items():
                for r in range(3):
                    back[r] += emb.matrix[r][a] * c
            back = {k: v for k, v in back.items() if v != 0}
            assert back == lhs


# SHA-256 of the preimage indices, structure constants and embedding matrix
# of the image structure of each Rota-Baxter operator of the gl(1|1) bracket
# with entries in (-1, 0, 1)
GL11_IMAGES = "3a32c2ca827000a41bcd046cec2cd795b83b6e9bb59251d600d50d213db572de"


def test_image_structures_of_every_gl_1_1_rota_baxter_operator():
    bracket = commutator_superalgebra(fixtures.general_linear(1, 1))
    ad = adjoint_representation(bracket)
    found = search_rota_baxter(bracket, values=(-1, 0, 1))
    assert len(found) == 101
    shapes, payload = set(), []
    for T in found:
        image = induced_structure_on_image(T, ad)
        P = pre_malcev_from_o_operator(T, ad)
        space, emb, pre = image.algebra.space, image.embedding, image.preimage_indices
        shapes.add((space.even_dim, space.odd_dim))
        for a, b in itertools.product(range(space.dim), repeat=2):
            # the embedding carries the image product to T of the product
            assert emb.apply_sparse(image.algebra.mul_basis(a, b)) == \
                T.apply_sparse(P.mul_basis(pre[a], pre[b]))
        constants = [[i, j, k, str(c)]
                     for (i, j), row in image.algebra.rows().items() for k, c in row.items()]
        payload.append([list(pre), constants, [[str(c) for c in row] for row in emb.matrix]])
    # ranks 0, 1 and 2, with odd images of dimension 0|1 and 1|1
    assert shapes == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)}
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == GL11_IMAGES


def test_compatible_structure_from_invertible_oop():
    P = fixtures.pre_malcev_1_1()
    L = left_multiplication_representation(P)
    ident = GradedLinearMap.identity(P.space)
    comp = compatible_pre_malcev_from_invertible_oop(ident, L)
    assert comp.table("mul") == P.table("mul")
    # c * identity gives the same compatible product (scalars cancel)
    comp2 = compatible_pre_malcev_from_invertible_oop(5 * ident, L)
    assert comp2.table("mul") == P.table("mul")
    assert check_pre_malcev(comp).ok
    assert commutator_superalgebra(comp).table("mul") == L.algebra.table("mul")


def test_compatible_structure_singular_operator_rejected():
    A = fixtures.sl2()
    with pytest.raises(ValueError):
        compatible_pre_malcev_from_invertible_oop(
            fixtures.rb_sl2_nilpotent(), adjoint_representation(A))


def test_pre_malcev_from_rota_baxter_paths():
    A = fixtures.sl2()
    rb = fixtures.rb_sl2_nilpotent()
    P = pre_malcev_from_rota_baxter(rb, A)
    assert P.table("mul") == fixtures.pre_lie_sl2().table("mul")
    assert check_pre_malcev(P).ok
    with pytest.raises(IdentityViolation):
        # identity is not a weight-zero Rota-Baxter map on a nonabelian bracket
        pre_malcev_from_rota_baxter(GradedLinearMap.identity(A.space), A)
    # on an abelian bracket the identity works and both paths agree
    abelian = fixtures.zero_algebra(1, 1)
    ident = GradedLinearMap.identity(abelian.space)
    P0 = pre_malcev_from_rota_baxter(ident, abelian)
    P1 = pre_malcev_from_invertible_rota_baxter(ident, abelian)
    assert P0.table("mul") == P1.table("mul")
    with pytest.raises(ValueError):
        pre_malcev_from_invertible_rota_baxter(
            GradedLinearMap.zero(abelian.space, abelian.space, 0), abelian)


def test_invertible_rb_compatible_structure():
    # diag(1, 2) is an invertible Rota-Baxter map on the Heisenberg bracket
    A = fixtures.heisenberg_1_1()
    R = diag_map(A.space, [1, 2])
    P = pre_malcev_from_rota_baxter(R, A)
    Q = pre_malcev_from_invertible_rota_baxter(R, A)
    assert check_pre_malcev(P).ok and check_pre_malcev(Q).ok
    assert commutator_superalgebra(Q).table("mul") == A.table("mul")


# -- bilinear forms ----------------------------------------------------------------


def test_classify_zero_form():
    A = fixtures.sl2()
    omega = BilinearForm(A.space, _linalg.zero_matrix(3, 3))
    flags = classify_form(omega, A)
    assert flags.supersymmetric and flags.skew_supersymmetric
    assert not flags.nondegenerate
    assert flags.invariant


def killing_form(A):
    ad = adjoint_representation(A)
    n = A.space.dim
    return BilinearForm(A.space, tuple(
        tuple(sum(_linalg.mat_mul(ad.action[i].matrix, ad.action[j].matrix)[k][k]
                  for k in range(n)) for j in range(n))
        for i in range(n)
    ))


def test_killing_form_on_sl2():
    A = fixtures.sl2()
    B = killing_form(A)
    flags = classify_form(B, A)
    assert flags.supersymmetric and flags.nondegenerate and flags.invariant
    assert not flags.skew_supersymmetric
    # invariance against the raw-table oracle
    table = A.table("mul")
    n = 3
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = sum(table[i][j][p] * B.matrix[p][k] for p in range(n))
        rhs = sum(B.matrix[i][p] * table[j][k][p] for p in range(n))
        assert lhs == rhs


def test_skew_nonsingular_even_form_on_abelian():
    A = fixtures.zero_algebra(2, 0)
    omega = BilinearForm(A.space, ((0, 1), (-1, 0)))
    flags = classify_form(omega, A)
    assert flags.skew_supersymmetric and flags.nondegenerate and flags.invariant
    assert check_symplectic(omega, A).ok


def test_symplectic_precondition_flags():
    A = fixtures.zero_algebra(2, 0)
    degenerate = BilinearForm(A.space, ((0, 0), (0, 0)))
    report = check_symplectic(degenerate, A)
    assert "form is degenerate" in report.precondition_failures
    not_skew = BilinearForm(A.space, ((1, 0), (0, 1)))
    report = check_symplectic(not_skew, A)
    assert "form is not skew-supersymmetric" in report.precondition_failures


def test_seeded_skew_form_on_semidirect_fails_cocycle():
    A = semidirect_malcev(adjoint_representation(fixtures.sl2()))
    n = A.space.dim
    rows = [[Z] * n for _ in range(n)]
    val = 1
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction((val * 7 + 3) % 5 - 2)
            rows[j][i] = -rows[i][j]
            val += 1
    omega = BilinearForm(A.space, tuple(tuple(r) for r in rows))
    report = check_symplectic(omega, A)
    assert not report.ok and report.violation_count > 0
    # scalar leftovers
    assert all(not hasattr(w[1], "coords") for w in report.witnesses)


def test_pre_malcev_from_symplectic_abelian_is_zero():
    A = fixtures.zero_algebra(2, 0)
    omega = BilinearForm(A.space, ((0, 3), (-3, 0)))
    P = pre_malcev_from_symplectic(omega, A)
    assert all(c == 0 for plane in P.table("mul") for row in plane for c in row)


def test_pre_malcev_from_symplectic_scaling_invariance():
    # built on the Heisenberg double, where a genuine symplectic form exists
    from supermalcev import canonical_r, symplectic_from_r
    c = canonical_r(fixtures.pre_malcev_1_1())
    omega = symplectic_from_r(c)
    P1 = pre_malcev_from_symplectic(omega, c.algebra)
    scaled = BilinearForm(omega.space, _linalg.mat_scale(Fraction(7), omega.matrix))
    P2 = pre_malcev_from_symplectic(scaled, c.algebra)
    assert P1.table("mul") == P2.table("mul")
    assert check_pre_malcev(P1).ok
    assert commutator_superalgebra(P1).table("mul") == c.algebra.table("mul")


# -- oracles: the form checkers from the dense matrix and table ----------------------


def oracle_form_flags(omega, A):
    """The four flags of ``classify_form``; invariance is w(xy, z) = w(x, yz)
    on basis triples."""
    n, par, w, table = A.space.dim, A.space.parities(), omega.matrix, A.table("mul")
    pairs = list(itertools.product(range(n), repeat=2))
    return FormFlags(
        all(w[i][j] == koszul_sign(par[i], par[j]) * w[j][i] for i, j in pairs),
        all(w[i][j] == -koszul_sign(par[i], par[j]) * w[j][i] for i, j in pairs),
        not _linalg.nullspace(w, n),
        all(sum(table[i][j][p] * w[p][k] for p in range(n))
            == sum(w[i][p] * table[j][k][p] for p in range(n))
            for i, j, k in itertools.product(range(n), repeat=3)))


def oracle_symplectic(omega, A):
    """Failing basis triples of the cyclic sum in lexicographic order with
    their scalar leftovers, the number of triples, and the precondition
    failures."""
    n, par, w, table = A.space.dim, A.space.parities(), omega.matrix, A.table("mul")

    def term(i, j, k):  # (-1)^{|i||k|} w(b_i, b_j b_k)
        return koszul_sign(par[i], par[k]) * sum(w[i][p] * table[j][k][p] for p in range(n))

    fails = [((i, j, k), total) for i, j, k in itertools.product(range(n), repeat=3)
             if (total := term(i, j, k) + term(j, k, i) + term(k, i, j))]
    flags = oracle_form_flags(omega, A)
    preconditions = (("form is not skew-supersymmetric",) * (not flags.skew_supersymmetric)
                     + ("form is degenerate",) * (not flags.nondegenerate))
    return fails, n ** 3, preconditions


def rational_form(space, seed, kind):
    """A seeded form with constants over 1, 2, 3 and 5: skew-supersymmetric
    and even ("skew"), the same with the last basis vector in its radical
    ("degenerate"), or any matrix at all ("any")."""
    rng = random.Random(seed)
    n, par = space.dim, space.parities()
    w = [[Z] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        value = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3, 5)))
        if kind == "any":
            w[i][j] = value
        elif i <= j and par[i] == par[j] and (i < j or par[i]):
            w[i][j], w[j][i] = value, -koszul_sign(par[i], par[j]) * value
    if kind == "degenerate":
        for i in range(n):
            w[i][n - 1] = w[n - 1][i] = Z
    return BilinearForm(space, w)


def supertrace_form(m, n):
    """str(xy) on gl(m|n): str(E_ij E_kl) = delta_jk delta_il (-1)^{|i|}."""
    G = fixtures.general_linear(m, n)
    units = [(int(label[1]) - 1, int(label[2]) - 1) for label in G.space.labels]
    return G, BilinearForm(G.space, tuple(
        tuple(Fraction((-1) ** (i >= m)) if (j, i) == (k, l) else Z for k, l in units)
        for i, j in units))


def _form_cases():
    """(form, algebra, expected flags or None) on odd-graded inputs."""
    cases = []
    for shape, seed in (((2, 1), 3), ((2, 2), 4), ((1, 2), 5)):
        space = SuperSpace(*shape)
        A = rational_product(space, seed)
        for kind in ("skew", "degenerate", "any"):
            cases.append((rational_form(space, seed, kind), A, kind))
    c11 = canonical_r(fixtures.pre_malcev_1_1())
    cases.append((symplectic_from_r(c11), c11.algebra, "symplectic"))
    for m, n in ((1, 1), (2, 1)):
        G, form = supertrace_form(m, n)
        cases += [(form, G, "supertrace"), (form, commutator_superalgebra(G), "supertrace")]
    return cases


def test_form_checkers_match_dense_oracles():
    seen = set()
    for omega, A, kind in _form_cases():
        flags = classify_form(omega, A)
        assert flags == oracle_form_flags(omega, A)
        fails, checked, preconditions = oracle_symplectic(omega, A)
        for limit in (3, 10 ** 6):
            report = check_symplectic(omega, A, witness_limit=limit)
            assert report.violation_count == len(fails)
            assert report.checked_tuples == checked
            assert report.witnesses == tuple(fails[:limit])
            assert report.precondition_failures == preconditions
        seen.add((kind, flags, report.ok))
    expected = {
        # (kind, (supersymmetric, skew, nondegenerate, invariant), symplectic)
        ("skew", FormFlags(False, True, True, False), False),
        ("degenerate", FormFlags(False, True, False, False), False),
        ("any", FormFlags(False, False, True, False), False),
        ("symplectic", FormFlags(False, True, True, False), True),
        ("supertrace", FormFlags(True, False, True, True), False),
    }
    assert seen >= expected


# -- pre-alternative constructions ---------------------------------------------------


def test_pre_alternative_from_zero_operator():
    Zorn = fixtures.zorn_split_octonions()
    B = regular_bimodule(Zorn)
    P = pre_alternative_from_o_operator(
        GradedLinearMap.zero(Zorn.space, Zorn.space, 0), B)
    for name in ("prec", "succ"):
        assert all(c == 0 for plane in P.table(name) for row in plane for c in row)


def _zorn_rb_operators(limit=None):
    Zorn = fixtures.zorn_split_octonions()
    B = regular_bimodule(Zorn)
    found = []
    for p in range(8):
        for q in range(8):
            if p != q:
                found += search_o_operators_alternative(
                    B, values=(-1, 1), support=((p, q),))
    return Zorn, B, found


def test_zorn_rb_operators_build_pre_alternative():
    Zorn, B, found = _zorn_rb_operators()
    assert len(found) >= 10
    rep = rep_from_bimodule(B)
    for T in found[:6]:
        P = pre_alternative_from_o_operator(T, B)
        assert check_pre_alternative(P).ok
        # the derived product equals the pre-Malcev route tablewise
        derived = pre_malcev_from_pre_alternative(P)
        via_malcev = pre_malcev_from_o_operator(T, rep)
        assert derived.table("mul") == via_malcev.table("mul")


def test_o_operator_transfer_alternative_to_malcev():
    # an alternative O-operator is a Malcev O-operator for the induced rep
    Zorn, B, found = _zorn_rb_operators()
    rep = rep_from_bimodule(B)
    for T in found[:8]:
        assert check_o_operator_malcev(T, rep).ok


def test_rb_corollary_prec_succ_shape():
    # x prec y = x * R(y) and x succ y = R(x) * y on the algebra itself
    Zorn, B, found = _zorn_rb_operators()
    T = next(T for T in found if nonzero(T))
    P = pre_alternative_from_o_operator(T, B)
    table = Zorn.table("mul")
    n = 8
    for i, j in itertools.product(range(n), repeat=2):
        rj = T.apply_sparse({j: Fraction(1)})
        ri = T.apply_sparse({i: Fraction(1)})
        prec_expect = Zorn.mul_sparse({i: Fraction(1)}, rj)
        succ_expect = Zorn.mul_sparse(ri, {j: Fraction(1)})
        assert prec_expect == {k: c for k, c in enumerate(P.table("prec")[i][j]) if c}
        assert succ_expect == {k: c for k, c in enumerate(P.table("succ")[i][j]) if c}


# -- grid searches ------------------------------------------------------------------


def grid(domain, codomain, values, support):
    """Every candidate of a search, in its lexicographic order."""
    for combo in itertools.product(values, repeat=len(support)):
        rows = [[Z] * domain.dim for _ in range(codomain.dim)]
        for (i, j), v in zip(support, combo):
            rows[i][j] = Fraction(v)
        yield GradedLinearMap(domain, codomain, rows, 0)


def parity_zero_support(domain, codomain):
    return tuple((i, j) for i in range(codomain.dim) for j in range(domain.dim)
                 if codomain.parity(i) == domain.parity(j))


SL2_SUPPORT = ((0, 0), (0, 2), (1, 1), (1, 2), (2, 1))


def _search_cases():
    sl2, heis = fixtures.sl2(), fixtures.heisenberg_1_1()
    ad_sl2, ad_heis = adjoint_representation(sl2), adjoint_representation(heis)
    coad_aff = coadjoint_representation(fixtures.affine_1_1())
    BZ = regular_bimodule(fixtures.zorn_split_octonions())
    small = (-1, 0, 1)
    wide = tuple(range(-2, 3))
    return [
        # (search with keyword arguments, checker, domain, codomain, values, support)
        (lambda **kw: search_rota_baxter(sl2, small, **kw),
         lambda T: check_rota_baxter(T, sl2), sl2.space, sl2.space, small, SL2_SUPPORT),
        (lambda **kw: search_o_operators_malcev(ad_sl2, small, **kw),
         lambda T: check_o_operator_malcev(T, ad_sl2), sl2.space, sl2.space, small,
         SL2_SUPPORT),
        (lambda **kw: search_rota_baxter(heis, wide, **kw),
         lambda T: check_rota_baxter(T, heis), heis.space, heis.space, wide, None),
        (lambda **kw: search_o_operators_malcev(ad_heis, wide, **kw),
         lambda T: check_o_operator_malcev(T, ad_heis), heis.space, heis.space, wide, None),
        (lambda **kw: search_o_operators_malcev(coad_aff, wide, **kw),
         lambda T: check_o_operator_malcev(T, coad_aff), coad_aff.space,
         coad_aff.algebra.space, wide, None),
        (lambda **kw: search_o_operators_alternative(BZ, small, **kw),
         lambda T: check_o_operator_alternative(T, BZ), BZ.space, BZ.algebra.space, small,
         ((2, 3),)),
        (lambda **kw: search_o_operators_alternative(BZ, small, **kw),
         lambda T: check_o_operator_alternative(T, BZ), BZ.space, BZ.algebra.space, small,
         ((0, 0),)),
    ]


@pytest.mark.parametrize("case", range(7))
def test_search_returns_exactly_what_its_checker_accepts(case):
    search, check, domain, codomain, values, support = _search_cases()[case]
    full = parity_zero_support(domain, codomain) if support is None else support
    expected = [T.matrix for T in grid(domain, codomain, values, full) if check(T).ok]
    found = search(support=support)
    assert [T.matrix for T in found] == expected
    assert all(T.parity == 0 and T.domain == domain and T.codomain == codomain
               for T in found)
    assert [T.matrix for T in search(support=support, limit=2)] == expected[:2]
    assert search(support=support, limit=0) == []


def test_search_rejects_odd_support_before_searching():
    heis = fixtures.heisenberg_1_1()
    searches = (
        lambda values: search_rota_baxter(heis, values, support=((0, 1),)),
        lambda values: search_o_operators_malcev(
            adjoint_representation(heis), values, support=((0, 0), (1, 0))),
        lambda values: search_o_operators_alternative(
            regular_bimodule(heis), values, support=((0, 1),)),
    )
    for search in searches:
        # with only the zero value every candidate passes, so nothing but the
        # up-front check can reject the support
        for values in ((0,), (0, 1)):
            with pytest.raises(ParityViolation):
                search(values)


def test_benchmark_grid_matches_brute_force():
    # sl2 on the full 3x3 support with values (-1, 0, 1): 3^9 candidates
    sl2 = fixtures.sl2()
    ad = adjoint_representation(sl2)
    full = parity_zero_support(sl2.space, sl2.space)
    assert len(full) == 9
    small = (-1, 0, 1)
    candidates = list(grid(sl2.space, sl2.space, small, full))
    for search, check in (
        (lambda: search_rota_baxter(sl2, small, support=full),
         lambda T: check_rota_baxter(T, sl2)),
        (lambda: search_o_operators_malcev(ad, small, support=full),
         lambda T: check_o_operator_malcev(T, ad)),
    ):
        expected = [T.matrix for T in candidates if check(T).ok]
        assert len(expected) == 23
        assert [T.matrix for T in search()] == expected


def _values_on(found, support):
    """Each found operator's values on the support entries."""
    return [tuple(int(T.matrix[i][j]) for i, j in support) for T in found]


def test_search_semantics_are_pinned():
    sl2 = fixtures.sl2()
    ad = adjoint_representation(sl2)
    small = (-1, 0, 1)
    searches = (
        lambda values, **kw: search_rota_baxter(sl2, values, **kw),
        lambda values, **kw: search_o_operators_malcev(ad, values, **kw),
    )
    for search in searches:
        # an empty support has one candidate, the zero map
        assert [T.matrix for T in search(small, support=())] == [
            tuple((Z,) * 3 for _ in range(3))]
        # a repeated entry takes its last value; each hit repeats once per
        # value of the earlier occurrence
        repeated = ((0, 2), (1, 1), (0, 2), (2, 1))
        assert _values_on(search(small, support=repeated), repeated) == [
            (-1, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0),
        ] * 3
        # repeated values give repeated hits, and a generator is read once
        support = ((0, 2), (1, 1), (2, 1))
        pinned = [(1, 0, 0), (0, 0, 1), (0, 0, 0), (0, 0, 1), (1, 0, 0)]
        assert _values_on(search((1, 0, 1), support=support), support) == pinned
        assert _values_on(search((v for v in (1, 0, 1)), support=support), support) == pinned
        with pytest.raises(ValueError):
            search(small, support=SL2_SUPPORT, limit=-1)
        # limit 2 on a grid where pruning rejects (-1, -1, ...) first
        assert _values_on(search(small, support=SL2_SUPPORT, limit=2), SL2_SUPPORT) == [
            (-1, 0, 0, 0, 0), (0, -1, 0, -1, 0)]


def _rational_search_cases():
    """(search taking values and keywords, checker, domain, codomain, support)
    on inputs whose constants have denominators 2 to 6."""
    A = rational_product(SuperSpace(2, 1), 4)
    P = rational_product(SuperSpace(1, 2), 2, two_products=True)
    succ = Superalgebra(P.space, {"mul": P.rows("succ")})
    M, N = rational_product(SuperSpace(1, 2), 0), rational_product(SuperSpace(1, 2), 35)
    V = SuperSpace(1, 1)
    R = Representation(M, V, rational_action(M, V, 0))
    B = Bimodule(N, V, rational_action(N, V, 45, "left"), rational_action(N, V, 55, "right"))
    # sl2 in a rational basis: its forms mix coefficients over 1, 2, 3 and 6,
    # and more than a dozen candidates of each grid pass
    sl2 = fixtures.sl2()
    half, third = Fraction(1, 2), Fraction(1, 3)
    S = rebased(sl2, ((1, half, 0), (0, 1, 0), (0, third, 1)))
    ad = adjoint_representation(S)
    support = ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1))
    return [
        (lambda values, **kw: search_rota_baxter(A, values, **kw),
         lambda T: check_rota_baxter(T, A), A.space, A.space, None),
        (lambda values, **kw: search_rota_baxter(succ, values, **kw),
         lambda T: check_rota_baxter(T, succ), P.space, P.space, None),
        (lambda values, **kw: search_o_operators_malcev(R, values, **kw),
         lambda T: check_o_operator_malcev(T, R), V, M.space, None),
        (lambda values, **kw: search_o_operators_alternative(B, values, **kw),
         lambda T: check_o_operator_alternative(T, B), V, N.space, None),
        (lambda values, **kw: search_rota_baxter(S, values, **kw),
         lambda T: check_rota_baxter(T, S), S.space, S.space, support),
        (lambda values, **kw: search_o_operators_malcev(ad, values, **kw),
         lambda T: check_o_operator_malcev(T, ad), S.space, S.space, support),
    ]


@pytest.mark.parametrize("case", range(6))
def test_search_matches_brute_force_on_rational_inputs(case):
    search, check, domain, codomain, support = _rational_search_cases()[case]
    support = support or parity_zero_support(domain, codomain)
    hits = 0
    for values in ((-1, 0, 1), (0, Fraction(1, 2), -1), (Fraction(1, 3), 0, Fraction(1, 3))):
        for entries in (support, support + support[:1]):  # the first entry repeated
            expected = [T.matrix for T in grid(domain, codomain, values, entries)
                        if check(T).ok]
            assert [T.matrix for T in search(values, support=entries)] == expected
            assert [T.matrix for T in search(values, support=entries, limit=2)] == expected[:2]
            hits += len(expected)
    # the zero map passes once per value of the repeated entry: 12 times in all
    assert hits > 12


# SHA-256 of the hit matrices of the default-range sl2 searches (values
# range(-2, 3), all 9 entries); Rota-Baxter operators of sl2 are exactly
# its O-operators for the adjoint representation
SL2_DEFAULT_HITS = "0c77865c38c567b666afe22129ff992e66f383f1d51fc6b6dc11b51412946c46"


def _hits_digest(found):
    payload = json.dumps([[[str(c) for c in row] for row in T.matrix] for T in found])
    return hashlib.sha256(payload.encode()).hexdigest()


def test_default_range_sl2_searches_are_pinned():
    sl2 = fixtures.sl2()
    for found in (search_rota_baxter(sl2), search_o_operators_malcev(adjoint_representation(sl2))):
        assert len(found) == 121
        assert _hits_digest(found) == SL2_DEFAULT_HITS


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_residual_forms_reproduce_the_residuals(seed):
    S = SuperSpace(2, 2)
    A = fixtures.random_product(S, seed)
    A2 = fixtures.random_product(S, seed, two_products=True)
    R = Representation(A, S, fixtures.random_action_maps(A, S, seed))
    B = Bimodule(A, S, fixtures.random_action_maps(A, S, seed + 10),
                 fixtures.random_action_maps(A, S, seed + 20))
    rng = random.Random(seed)
    contexts = (_rep_context(R), _bimodule_context(B),
                _rota_baxter_context(Superalgebra(S, {"mul": A2.rows("succ")}), False),
                _rota_baxter_context(A, True))
    for ctx in contexts:
        # a repeated first entry: its last occurrence sets the value
        support = parity_zero_support(ctx.module, ctx.algebra.space)
        support += support[:1]
        forms = _residual_forms(ctx, support)
        vanished = failed = 0
        for _ in range(12):
            x = [Fraction(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2)))) for _ in support]
            compiled: dict = {}
            for (a, b, m), form in forms.items():
                value = sum((c * x[e1] * x[e2] for (e1, e2), c in form.items()), Z)
                if value:
                    compiled.setdefault((a, b), {})[m] = value
            cols = [{} for _ in range(ctx.module.dim)]
            for (i, j), v in dict(zip(support, x)).items():
                if v:
                    cols[j][i] = v
            direct = {(a, b): res for a, b, res in _residuals(ctx, cols) if res}
            assert compiled == direct
            failed += len(direct)
            vanished += ctx.module.dim ** 2 - len(direct)
        assert vanished and failed
