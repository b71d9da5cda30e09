"""Checker tests against independent brute-force oracles.

The oracles below only ever touch raw structure-constant tables; they
share no evaluation code with the library.
"""

import itertools
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from supermalcev import (
    GradedLinearMap,
    ParityViolation,
    SuperSpace,
    Superalgebra,
    adjoint_representation,
    canonical_r,
    check_left_alternative,
    check_malcev,
    check_malcev_representation,
    check_pre_alternative,
    check_pre_malcev,
    check_right_alternative,
    check_rota_baxter,
    coadjoint_representation,
    commutator_superalgebra,
    compatible_pre_malcev_from_invertible_oop,
    induced_structure_on_image,
    left_multiplication_representation,
    pre_alternative_from_o_operator,
    pre_malcev_from_invertible_rota_baxter,
    pre_malcev_from_o_operator,
    pre_malcev_from_pre_alternative,
    pre_malcev_from_rota_baxter,
    pre_malcev_from_symplectic,
    pre_malcev_on_dual_from_r,
    regular_bimodule,
    search_rota_baxter,
    semidirect_alternative,
    semidirect_malcev,
    sum_pre_alternative,
    symplectic_from_r,
)
from supermalcev import fixtures
from supermalcev._kernel import packed, slot_width, unpack
from supermalcev.algebras import _IDENTITIES, _Evaluator, _check
from supermalcev.cli import MAX_DIM
from supermalcev.serialize import parse
from rational_inputs import (
    algebra_constants,
    denominator,
    embedded,
    even_unimodular,
    rational_product,
    rebased,
    seven_digit_primes,
    shuffled,
    sparse_rational_product,
)
from work_counts import multiply_adds

Z = Fraction(0)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- oracle helpers (raw-table arithmetic only) ---------------------------


def naive_mul(table, x, y):
    n = len(table)
    out = [Z] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            xy = x[i] * y[j]
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] += xy * c
    return out


def basis(n, i):
    v = [Z] * n
    v[i] = Fraction(1)
    return v


def vec_add(a, b, factor=Fraction(1)):
    return [x + factor * y for x, y in zip(a, b)]


def is_zero(v):
    return all(x == 0 for x in v)


def sgn(p, q):
    return -1 if (p % 2) and (q % 2) else 1


def naive_bracket(table, par, x, y):
    px = next((par[i] for i, c in enumerate(x) if c != 0), 0)
    py = next((par[j] for j, c in enumerate(y) if c != 0), 0)
    return vec_add(naive_mul(table, x, y), naive_mul(table, y, x), Fraction(-sgn(px, py)))


def oracle_left_alternative_failures(A):
    """The failing triples in order, each mapped to its leftover."""
    table, par = A.table("mul"), A.space.parities()
    n = A.space.dim
    bad = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        as1 = vec_add(naive_mul(table, naive_mul(table, x, y), z),
                      naive_mul(table, x, naive_mul(table, y, z)), Fraction(-1))
        as2 = vec_add(naive_mul(table, naive_mul(table, y, x), z),
                      naive_mul(table, y, naive_mul(table, x, z)), Fraction(-1))
        res = vec_add(as1, as2, Fraction(sgn(par[i], par[j])))
        if not is_zero(res):
            bad[(i, j, k)] = res
    return bad


def oracle_right_alternative_failures(A):
    """The failing triples in order, each mapped to its leftover."""
    table, par = A.table("mul"), A.space.parities()
    n = A.space.dim
    bad = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        as1 = vec_add(naive_mul(table, naive_mul(table, x, y), z),
                      naive_mul(table, x, naive_mul(table, y, z)), Fraction(-1))
        as2 = vec_add(naive_mul(table, naive_mul(table, x, z), y),
                      naive_mul(table, x, naive_mul(table, z, y)), Fraction(-1))
        res = vec_add(as1, as2, Fraction(sgn(par[j], par[k])))
        if not is_zero(res):
            bad[(i, j, k)] = res
    return bad


def oracle_malcev_failures(A):
    """Pairs violating anticommutativity and quadruples violating Def (ii),
    each in order and mapped to its leftover."""
    table, par = A.table("mul"), A.space.parities()
    n = A.space.dim
    bad_pairs = {}
    for i, j in itertools.product(range(n), repeat=2):
        x, y = basis(n, i), basis(n, j)
        res = vec_add(naive_mul(table, x, y), naive_mul(table, y, x),
                      Fraction(sgn(par[i], par[j])))
        if not is_zero(res):
            bad_pairs[(i, j)] = res
    bad_quads = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        x, y, z, t = basis(n, i), basis(n, j), basis(n, k), basis(n, l)
        br = lambda a, b: naive_mul(table, a, b)
        lhs = [Fraction(sgn(par[j], par[k])) * c for c in br(br(x, z), br(y, t))]
        rhs = br(br(br(x, y), z), t)
        rhs = vec_add(rhs, br(br(br(y, z), t), x),
                      Fraction(sgn(par[i], par[j] + par[k] + par[l])))
        rhs = vec_add(rhs, br(br(br(z, t), x), y),
                      Fraction(sgn(par[i] + par[j], par[k] + par[l])))
        rhs = vec_add(rhs, br(br(br(t, x), y), z),
                      Fraction(sgn(par[l], par[i] + par[j] + par[k])))
        res = vec_add(lhs, rhs, Fraction(-1))
        if not is_zero(res):
            bad_quads[(i, j, k, l)] = res
    return bad_pairs, bad_quads


def oracle_pm_expanded(table, par, i, j, k, l):
    """The ten-term expansion of the pre-Malcev identity (no brackets)."""
    n = len(table)
    x, y, z, t = basis(n, i), basis(n, j), basis(n, k), basis(n, l)
    m = lambda a, b: naive_mul(table, a, b)
    px, py, pz = par[i], par[j], par[k]
    total = [Z] * n
    total = vec_add(total, m(m(y, z), m(x, t)), Fraction(sgn(px, py + pz)))
    total = vec_add(total, m(m(z, y), m(x, t)), Fraction(-sgn(px, py + pz) * sgn(py, pz)))
    total = vec_add(total, m(m(m(x, y), z), t))
    total = vec_add(total, m(m(m(y, x), z), t), Fraction(-sgn(px, py)))
    total = vec_add(total, m(m(z, m(x, y)), t), Fraction(-sgn(px + py, pz)))
    total = vec_add(total, m(m(z, m(y, x)), t), Fraction(sgn(px, py) * sgn(px + py, pz)))
    total = vec_add(total, m(y, m(m(x, z), t)), Fraction(sgn(px, py)))
    total = vec_add(total, m(y, m(m(z, x), t)), Fraction(-sgn(px, py + pz)))
    total = vec_add(total, m(x, m(y, m(z, t))), Fraction(-1))
    total = vec_add(total, m(z, m(x, m(y, t))), Fraction(sgn(pz, px + py)))
    return total


def oracle_pre_malcev_failures(A):
    """The failing quadruples in order, each mapped to its leftover."""
    table, par = A.table("mul"), A.space.parities()
    bad = {}
    for q in itertools.product(range(A.space.dim), repeat=4):
        res = oracle_pm_expanded(table, par, *q)
        if not is_zero(res):
            bad[q] = res
    return bad


def oracle_pre_alternative_failures(A):
    """The failing (identity#, i, j, k) in order, each mapped to its leftover."""
    prec, succ = A.table("prec"), A.table("succ")
    par = A.space.parities()
    n = A.space.dim
    p = lambda a, b: naive_mul(prec, a, b)
    s = lambda a, b: naive_mul(succ, a, b)
    star = lambda a, b: vec_add(p(a, b), s(a, b))
    bad = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, y, z = basis(n, i), basis(n, j), basis(n, k)
        sxy, syz = Fraction(sgn(par[i], par[j])), Fraction(sgn(par[j], par[k]))
        r1 = vec_add(s(star(x, y), z), s(x, s(y, z)), Fraction(-1))
        r1 = vec_add(r1, s(star(y, x), z), sxy)
        r1 = vec_add(r1, s(y, s(x, z)), -sxy)
        r2 = vec_add(p(p(x, y), z), p(x, star(y, z)), Fraction(-1))
        r2 = vec_add(r2, p(p(x, z), y), syz)
        r2 = vec_add(r2, p(x, star(z, y)), -syz)
        r3 = vec_add(p(s(x, y), z), s(x, p(y, z)), Fraction(-1))
        r3 = vec_add(r3, p(p(y, x), z), sxy)
        r3 = vec_add(r3, p(y, star(x, z)), -sxy)
        r4 = vec_add(p(s(x, y), z), s(x, p(y, z)), Fraction(-1))
        r4 = vec_add(r4, s(star(x, z), y), syz)
        r4 = vec_add(r4, s(x, s(z, y)), -syz)
        for q, res in enumerate((r1, r2, r3, r4)):
            if not is_zero(res):
                bad[(q, i, j, k)] = res
    return bad


# -- mul ------------------------------------------------------------------


def test_mul_zero_algebra():
    A = fixtures.zero_algebra(2, 0)
    assert A.mul(A.space.basis_vector(0), A.space.basis_vector(1)).is_zero()


def test_mul_table_lookup():
    space = SuperSpace(3, 0)
    A = Superalgebra.from_entries(space, {"mul": {(0, 1, 2): 1}})
    product = A.mul(space.basis_vector(0), space.basis_vector(1))
    assert product.coords == (Z, Z, Fraction(1))


def test_mul_unknown_product_and_space_mismatch():
    A = fixtures.sl2()
    with pytest.raises(KeyError):
        A.mul(A.space.basis_vector(0), A.space.basis_vector(1), product="star")
    with pytest.raises(ValueError):
        A.mul(SuperSpace(2, 0).zero(), A.space.basis_vector(0))


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=3, max_size=3),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                min_size=3, max_size=3))
def test_mul_bilinear_matches_oracle(xs, ys):
    A = fixtures.sl2()
    x, y = A.space.vector(xs), A.space.vector(ys)
    assert list(A.mul(x, y).coords) == naive_mul(A.table("mul"), x.coords, y.coords)
    two_x = 2 * x
    three_y = 3 * y
    assert A.mul(two_x, three_y).coords == (6 * A.mul(x, y)).coords


def test_parity_homogeneity_enforced_at_construction():
    space = SuperSpace(1, 1)
    with pytest.raises(ParityViolation):
        Superalgebra.from_entries(space, {"mul": {(0, 0, 1): 1}})
    with pytest.raises(ParityViolation) as info:
        Superalgebra.from_entries(space, {"prec": {(1, 0, 0): Fraction(1, 2)}})
    assert str(info.value) == ("product 'prec': entry (1, 0, 0) = 1/2 maps "
                               "parities (1, 0) to parity 0")


@pytest.mark.parametrize("c", [1, 0])
@pytest.mark.parametrize("i, j, k", [(0, 0, 2), (0, 2, 0), (2, 0, 0),
                                     (0, 0, -1), (0, -1, 0), (-1, 0, 0), (0, 5, -3)])
def test_constant_index_outside_the_space_raises(i, j, k, c):
    # negative indices too: they must not wrap around to the odd end of the basis
    with pytest.raises(IndexError):
        Superalgebra.from_entries(SuperSpace(1, 1), {"mul": {(i, j, k): c}})


# -- sparse storage ----------------------------------------------------------


def fixture_algebras():
    yield fixtures.zero_algebra(2, 1)
    for make in (fixtures.sl2, fixtures.split_octonions, fixtures.quaternions,
                 fixtures.zorn_split_octonions, fixtures.heisenberg_1_1,
                 fixtures.affine_1_1, fixtures.grassmann_1_1, fixtures.clifford_1_1,
                 fixtures.pre_malcev_1_1, fixtures.pre_lie_sl2):
        yield make()
    yield fixtures.random_product(SuperSpace(2, 2), seed=1)
    yield fixtures.random_product(SuperSpace(1, 2), seed=2, two_products=True)


def stored_entries(A, name):
    return {(i, j, k): c for (i, j), row in A.products[name].items() for k, c in row.items()}


def test_entries_round_trip_through_the_dense_table():
    for A in fixture_algebras():
        n = A.space.dim
        entries = {}
        for name in A.product_names():
            table = A.table(name)
            assert len(table) == n and all(len(p) == n and all(len(r) == n for r in p)
                                           for p in table)
            entries[name] = {(i, j, k): table[i][j][k]
                             for i, j, k in itertools.product(range(n), repeat=3)
                             if table[i][j][k] != 0}
            assert entries[name] == stored_entries(A, name)
        assert Superalgebra.from_entries(A.space, entries) == A


def test_storage_holds_no_zeros():
    for A in fixture_algebras():
        for rows in A.products.values():
            assert all(row and all(c != 0 for c in row.values()) for row in rows.values())
    space = SuperSpace(1, 1)
    padded = Superalgebra.from_entries(space, {"mul": {(0, 0, 0): 0, (1, 1, 0): 0,
                                                        (0, 1, 1): 3}})
    assert dict(padded.rows()) == {(0, 1): {1: Fraction(3)}}
    assert padded == Superalgebra.from_entries(space, {"mul": {(0, 1, 1): 3}})


def test_insertion_order_does_not_matter():
    from supermalcev.serialize import AlgebraDocument, serialize

    for A in fixture_algebras():
        forward = {name: stored_entries(A, name) for name in A.product_names()}
        backward = {name: dict(reversed(list(forward[name].items())))
                    for name in reversed(A.product_names())}
        B = Superalgebra.from_entries(A.space, backward)
        assert B == A and repr(B) == repr(A)
        assert B.product_names() == A.product_names() == tuple(sorted(A.product_names()))
        assert serialize(AlgebraDocument(B)) == serialize(AlgebraDocument(A))
        for name in A.product_names():
            assert list(B.products[name]) == sorted(B.products[name])


def constructed_algebras():
    """Algebras the package builds with ``Superalgebra._from_rows``: derived
    and semidirect products, the constructions from an operator, a form or
    an r-matrix, and the algebra of every fixture document as parsed."""
    O = fixtures.split_octonions()
    P = fixtures.random_product(SuperSpace(2, 2), 4, two_products=True)
    co = coadjoint_representation(commutator_superalgebra(O))
    sl2, pre_lie, heis = fixtures.sl2(), fixtures.pre_lie_sl2(), fixtures.heisenberg_1_1()
    ad, rb = adjoint_representation(sl2), fixtures.rb_sl2_nilpotent()
    L = left_multiplication_representation(pre_lie)
    c = canonical_r(fixtures.pre_malcev_1_1())
    zorn = parse((FIXTURES / "zorn_regular_rb.json").read_text(encoding="utf-8"))
    image = induced_structure_on_image(rb, ad)
    assert image.algebra.space.dim < sl2.space.dim  # rb is rank-deficient
    return [commutator_superalgebra(O),
            commutator_superalgebra(rational_product(SuperSpace(2, 2), 3)),
            sum_pre_alternative(P), pre_malcev_from_pre_alternative(P), semidirect_malcev(co),
            semidirect_alternative(regular_bimodule(fixtures.zorn_split_octonions())),
            pre_malcev_from_o_operator(rb, ad), pre_malcev_from_rota_baxter(rb, sl2),
            compatible_pre_malcev_from_invertible_oop(5 * GradedLinearMap.identity(L.space), L),
            pre_malcev_from_invertible_rota_baxter(
                GradedLinearMap(heis.space, heis.space, ((1, 0), (0, 2))), heis),
            image.algebra, pre_alternative_from_o_operator(zorn.linear_map, zorn.bimodule),
            pre_malcev_from_symplectic(symplectic_from_r(c), c.algebra),
            pre_malcev_on_dual_from_r(canonical_r(pre_lie))] + [
        parse(path.read_text(encoding="utf-8")).algebra
        for path in sorted(FIXTURES.glob("*.json"))]


def test_constructions_build_the_value_the_validating_constructor_builds():
    # the trusted rows of a construction, checked and frozen again by the
    # public constructor, and handed to _from_rows in another order
    from supermalcev.serialize import AlgebraDocument, serialize

    rng = random.Random(2)
    for S in constructed_algebras():
        assert all(row and all(type(c) is Fraction and c for c in row.values())
                   for r in S.products.values() for row in r.values())
        rows = {name: {key: dict(row) for key, row in S.rows(name).items()}
                for name in S.product_names()}
        for B in (Superalgebra(S.space, rows), Superalgebra._from_rows(S.space, {
                name: shuffled({key: shuffled(row, rng) for key, row in r.items()}, rng)
                for name, r in reversed(rows.items())})):
            assert B == S and hash(B) == hash(S) and repr(B) == repr(S)
            assert pickle.dumps(B) == pickle.dumps(S)
            assert serialize(AlgebraDocument(B)) == serialize(AlgebraDocument(S))
            assert all(type(c) is Fraction for r in B.products.values()
                       for row in r.values() for c in row.values())


# -- alternativity ---------------------------------------------------------


def test_alternative_zero_algebra():
    A = fixtures.zero_algebra(2, 1)
    assert check_left_alternative(A).ok
    assert check_right_alternative(A).ok


def test_split_octonions_alternative_oracle():
    A = fixtures.split_octonions()
    assert oracle_left_alternative_failures(A) == {}
    assert oracle_right_alternative_failures(A) == {}
    left, right = check_left_alternative(A), check_right_alternative(A)
    assert left.ok and right.ok
    assert left.checked_tuples == right.checked_tuples == 512


def test_split_octonions_not_associative():
    # the checkers must not be vacuous: octonions associate nowhere near fully
    A = fixtures.split_octonions()
    table = A.table("mul")
    n = A.space.dim
    assoc_failures = sum(
        1 for i, j, k in itertools.product(range(n), repeat=3)
        if not is_zero(vec_add(
            naive_mul(table, naive_mul(table, basis(n, i), basis(n, j)), basis(n, k)),
            naive_mul(table, basis(n, i), naive_mul(table, basis(n, j), basis(n, k))),
            Fraction(-1)))
    )
    assert assoc_failures > 0


def test_non_alternative_counterexample_matches_oracle():
    space = SuperSpace(2, 0)
    A = Superalgebra.from_entries(space, {"mul": {(0, 0, 1): 1, (1, 1, 0): 1}})
    bad = oracle_left_alternative_failures(A)
    assert bad  # e.g. as(e1,e1,e2) + as(e1,e1,e2) = -2 e1*e1 != 0
    report = check_left_alternative(A, witness_limit=100)
    assert {w[0] for w in report.witnesses} == bad.keys()
    assert report.violation_count == len(bad)


def test_zorn_octonions_alternative():
    A = fixtures.zorn_split_octonions()
    assert check_left_alternative(A).ok and check_right_alternative(A).ok
    assert oracle_left_alternative_failures(A) == {}


# -- Malcev -----------------------------------------------------------------


def test_malcev_zero_bracket():
    assert check_malcev(fixtures.zero_algebra(3, 1)).ok


def test_sl2_malcev_oracle():
    A = fixtures.sl2()
    pairs, quads = oracle_malcev_failures(A)
    assert pairs == {} and quads == {}
    report = check_malcev(A)
    assert report.ok
    assert report.checked_tuples == 81


def test_octonion_commutator_is_malcev():
    C = commutator_superalgebra(fixtures.split_octonions())
    pairs, quads = oracle_malcev_failures(C)
    assert pairs == {} and quads == {}
    assert check_malcev(C).ok


def test_octonions_tensor_grassmann_commutator_is_malcev():
    # an odd-graded, non-associative positive
    A = fixtures.tensor_grassmann(fixtures.split_octonions(), 1)
    assert (A.space.even_dim, A.space.odd_dim) == (8, 8)
    assert check_left_alternative(A).ok and check_right_alternative(A).ok
    report = check_malcev(commutator_superalgebra(A))
    assert report.ok and report.checked_tuples == 16 ** 4


def test_tensor_grassmann_twice_is_tensor_grassmann_on_two_generators():
    # (O (x) Lambda(xi1)) (x) Lambda(xi1) is O (x) Lambda(xi1, xi2) with the
    # outer generator read as xi2; the odd vectors of O (x) Lambda(xi1) need
    # the sign (-1)^{|u||b|} of the tensor product for the two to agree
    O = fixtures.split_octonions()
    nested = fixtures.tensor_grassmann(fixtures.tensor_grassmann(O, 1), 1)
    flat = fixtures.tensor_grassmann(O, 2)

    def flat_label(label):
        b, u, w = label.split(".")
        monomial = ("xi1" if u == "xi1" else "") + ("xi2" if w == "xi1" else "")
        return f"{b}.{monomial or 1}"
    position = [flat.space.labels.index(flat_label(label)) for label in nested.space.labels]
    assert [flat.space.parity(p) for p in position] == list(nested.space.parities())
    assert {(position[i], position[j]): {position[k]: c for k, c in row.items()}
            for (i, j), row in nested.rows().items()} == {
        key: dict(row) for key, row in flat.rows().items()}


def test_super_fixtures_malcev():
    for A in (fixtures.heisenberg_1_1(), fixtures.affine_1_1()):
        pairs, quads = oracle_malcev_failures(A)
        assert pairs == {} and quads == {}
        assert check_malcev(A).ok


def test_malcev_checker_witnesses_match_oracle():
    A = fixtures.random_product(SuperSpace(1, 1), seed=11)
    pairs, quads = oracle_malcev_failures(A)
    report = check_malcev(A, witness_limit=10 ** 6)
    got_pairs = {w[0] for w in report.witnesses if len(w[0]) == 2}
    got_quads = {w[0] for w in report.witnesses if len(w[0]) == 4}
    assert got_pairs == pairs.keys()
    assert got_quads == quads.keys()
    assert not report.ok


# -- pre-Malcev --------------------------------------------------------------


def test_pre_malcev_zero_product():
    assert check_pre_malcev(fixtures.zero_algebra(2, 2)).ok


def test_pre_malcev_from_rb_product_oracle():
    # product x.y = [R(x), y] built from a Rota-Baxter map on sl(2)
    A = fixtures.pre_lie_sl2()
    assert oracle_pre_malcev_failures(A) == {}
    assert check_pre_malcev(A).ok


def test_pre_malcev_1_1_oracle():
    A = fixtures.pre_malcev_1_1()
    assert oracle_pre_malcev_failures(A) == {}
    assert check_pre_malcev(A).ok


def test_random_product_fails_pre_malcev_with_oracle_witnesses():
    A = fixtures.random_product(SuperSpace(1, 1), seed=5)
    bad = oracle_pre_malcev_failures(A)
    assert bad  # generic tables violate the identity
    report = check_pre_malcev(A, witness_limit=10 ** 6)
    assert {w[0] for w in report.witnesses} == bad.keys()


# -- pre-alternative ---------------------------------------------------------


def test_pre_alternative_zero_products():
    space = SuperSpace(2, 1)
    A = Superalgebra.from_entries(space, {"prec": {}, "succ": {}})
    assert check_pre_alternative(A).ok


def test_pre_alternative_requires_both_products():
    with pytest.raises(KeyError):
        check_pre_alternative(fixtures.sl2())


def test_rb_split_zorn_pre_alternative_oracle():
    # x prec y = x * R(y), x succ y = R(x) * y for a Rota-Baxter map R
    Zalg = fixtures.zorn_split_octonions()
    table = Zalg.table("mul")
    n = Zalg.space.dim
    rmat = [[Z] * n for _ in range(n)]
    rmat[2][3] = Fraction(1)  # x2 -> x1 block of the Zorn basis
    prec = {}
    succ = {}
    for i in range(n):
        for j in range(n):
            rj = [rmat[k][j] for k in range(n)]
            ri = [rmat[k][i] for k in range(n)]
            for k, c in enumerate(naive_mul(table, basis(n, i), rj)):
                if c:
                    prec[(i, j, k)] = c
            for k, c in enumerate(naive_mul(table, ri, basis(n, j))):
                if c:
                    succ[(i, j, k)] = c
    A = Superalgebra.from_entries(Zalg.space, {"prec": prec, "succ": succ})
    assert oracle_pre_alternative_failures(A) == {}
    assert check_pre_alternative(A).ok


def test_succ_only_octonions_fail_pre_alternative():
    Zalg = fixtures.zorn_split_octonions()
    n = Zalg.space.dim
    table = Zalg.table("mul")
    succ = {
        (i, j, k): table[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
        if table[i][j][k] != 0
    }
    A = Superalgebra.from_entries(Zalg.space, {"prec": {}, "succ": succ})
    bad = oracle_pre_alternative_failures(A)
    assert bad
    report = check_pre_alternative(A, witness_limit=10 ** 6)
    assert {w[0] for w in report.witnesses} == bad.keys()


# -- functors ----------------------------------------------------------------


def test_commutator_of_commutative_product_is_zero():
    space = SuperSpace(2, 0)
    A = Superalgebra.from_entries(space, {"mul": {(0, 1, 0): 1, (1, 0, 0): 1}})
    C = commutator_superalgebra(A)
    assert all(c == 0 for plane in C.table("mul") for row in plane for c in row)


def test_commutator_entrywise_formula():
    A = fixtures.random_product(SuperSpace(1, 1), seed=3)
    C = commutator_superalgebra(A)
    table, ctable = A.table("mul"), C.table("mul")
    par = A.space.parities()
    n = A.space.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        assert ctable[i][j][k] == table[i][j][k] - sgn(par[i], par[j]) * table[j][i][k]


def test_commutator_of_pre_malcev_is_malcev():
    for P in (fixtures.pre_lie_sl2(), fixtures.pre_malcev_1_1()):
        assert check_malcev(commutator_superalgebra(P)).ok


def test_sum_pre_alternative_trivial_cases():
    space = SuperSpace(1, 1)
    A = Superalgebra.from_entries(space, {"prec": {}, "succ": {}})
    S = sum_pre_alternative(A)
    assert all(c == 0 for plane in S.table("mul") for row in plane for c in row)
    # prec = 0, succ = an alternative product: the sum is succ verbatim
    g = fixtures.grassmann_1_1()
    succ_entries = {
        (i, j, k): g.table("mul")[i][j][k]
        for i, j, k in itertools.product(range(2), repeat=3)
        if g.table("mul")[i][j][k] != 0
    }
    A = Superalgebra.from_entries(space, {"prec": {}, "succ": succ_entries})
    assert sum_pre_alternative(A).table("mul") == g.table("mul")


def test_diagram_commutes_tablewise():
    # sum-then-commutator equals derived-product-then-commutator, exactly
    Zalg = fixtures.zorn_split_octonions()
    table = Zalg.table("mul")
    n = Zalg.space.dim
    rmat = [[Z] * n for _ in range(n)]
    rmat[5][6] = Fraction(-1)
    prec, succ = {}, {}
    for i in range(n):
        for j in range(n):
            rj = [rmat[k][j] for k in range(n)]
            ri = [rmat[k][i] for k in range(n)]
            for k, c in enumerate(naive_mul(table, basis(n, i), rj)):
                if c:
                    prec[(i, j, k)] = c
            for k, c in enumerate(naive_mul(table, ri, basis(n, j))):
                if c:
                    succ[(i, j, k)] = c
    A = Superalgebra.from_entries(Zalg.space, {"prec": prec, "succ": succ})
    assert check_pre_alternative(A).ok
    path1 = commutator_superalgebra(sum_pre_alternative(A))
    path2 = commutator_superalgebra(pre_malcev_from_pre_alternative(A))
    assert path1.table("mul") == path2.table("mul")


def test_reports_are_deterministic():
    A = fixtures.random_product(SuperSpace(1, 1), seed=5)
    assert check_pre_malcev(A) == check_pre_malcev(A)
    assert check_malcev(A) == check_malcev(A)


def test_witness_cap_and_exact_count():
    A = fixtures.random_product(SuperSpace(2, 2), seed=1)
    capped = check_pre_malcev(A, witness_limit=4)
    full = check_pre_malcev(A, witness_limit=10 ** 6)
    assert len(capped.witnesses) == 4
    assert capped.violation_count == full.violation_count == len(full.witnesses)
    assert capped.violation_count > 4


@pytest.mark.parametrize("limit", [0, -1])
def test_witness_limit_below_one_is_rejected(limit):
    # the octonions violate the Malcev identity, so a clamped limit would
    # have reported a count with one witness
    octonions = fixtures.split_octonions()
    sl2 = fixtures.sl2()
    checks = (
        lambda: check_malcev(octonions, witness_limit=limit),
        lambda: check_pre_malcev(fixtures.random_product(SuperSpace(2, 2), seed=1),
                                 witness_limit=limit),
        lambda: check_malcev_representation(adjoint_representation(sl2), witness_limit=limit),
        lambda: check_rota_baxter(fixtures.rb_sl2_nilpotent(), sl2, witness_limit=limit),
    )
    for check in checks:
        with pytest.raises(ValueError, match=f"witness_limit must be at least 1, got {limit}"):
            check()


# -- exact agreement with the oracles on odd-graded inputs --------------------

def malcev_pairs_then_quads(A):
    pairs, quads = oracle_malcev_failures(A)
    return {**pairs, **quads}


# name -> (checker, oracle, degree of the counted tuples, needs prec and succ)
ORACLE_CASES = {
    "left-alternative": (check_left_alternative, oracle_left_alternative_failures, 3, False),
    "right-alternative": (check_right_alternative, oracle_right_alternative_failures, 3, False),
    "malcev": (check_malcev, malcev_pairs_then_quads, 4, False),
    "pre-malcev": (check_pre_malcev, oracle_pre_malcev_failures, 4, False),
    "pre-alternative": (check_pre_alternative, oracle_pre_alternative_failures, 3, True),
}


@pytest.mark.parametrize("shape, seed", [((2, 2), 3), ((3, 3), 4)])
@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_checkers_match_oracles_exactly_on_odd_inputs(name, shape, seed):
    checker, oracle, degree, two_products = ORACLE_CASES[name]
    space = SuperSpace(*shape)
    A = fixtures.random_product(space, seed, two_products=two_products)
    expected = list(oracle(A).items())
    assert expected
    for limit in (3, 10 ** 6):
        report = checker(A, witness_limit=limit)
        assert report.identity == name
        assert report.violation_count == len(expected)
        assert report.checked_tuples == space.dim ** degree
        assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


@pytest.mark.parametrize("shape, seed", [((2, 2), 5), ((3, 3), 6)])
@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_checkers_match_oracles_exactly_with_denominators(name, shape, seed):
    # constants with denominators 2-6; for prec and succ the common
    # denominator is the lcm of both products' own
    checker, oracle, degree, two_products = ORACLE_CASES[name]
    space = SuperSpace(*shape)
    A = rational_product(space, seed, two_products)
    assert denominator(*algebra_constants(A)) == (12 if two_products else 6)
    expected = list(oracle(A).items())
    assert expected
    for limit in (3, 10 ** 6):
        report = checker(A, witness_limit=limit)
        assert report.violation_count == len(expected)
        assert report.checked_tuples == space.dim ** degree
        assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


@pytest.mark.parametrize("make, shape, seed", [
    (fixtures.random_product, (2, 2), 3), (fixtures.random_product, (3, 3), 4),
    (rational_product, (2, 2), 5), (rational_product, (3, 3), 6)])
def test_malcev_checker_matches_the_oracle_on_commutators(make, shape, seed):
    # a commutator is graded-anticommutative, so the quadruples are walked
    # one rotation orbit at a time
    space = SuperSpace(*shape)
    A = commutator_superalgebra(make(space, seed))
    pairs, quads = oracle_malcev_failures(A)
    assert not pairs and quads
    expected = list(quads.items())
    for limit in (3, 10 ** 6):
        report = check_malcev(A, witness_limit=limit)
        assert report.violation_count == len(expected)
        assert report.checked_tuples == space.dim ** 4
        assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]


def full_malcev_walk(A, limit, monkeypatch):
    """The Malcev report of the walk over every quadruple: the identity under
    another name walks no orbits."""
    monkeypatch.setitem(_IDENTITIES, "malcev, every quadruple", _IDENTITIES["malcev"])
    return _check(A, "malcev, every quadruple", limit)


def orbit_sizes(quadruples):
    """The sizes of the rotation orbits of ``quadruples``."""
    return {len({q[r:] + q[:r] for r in range(4)}) for q in quadruples}


def malcev_walk_inputs():
    """Seeded products, each followed by its commutator.  The products fail
    anticommutativity, so their quadruples are walked with the cyclic part
    held per orbit; the commutators are walked by orbits."""
    products = [fixtures.random_product(SuperSpace(*shape), seed)
                for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)) for seed in range(3)]
    products += [rational_product(SuperSpace(*shape), seed)  # denominators 2 and 3
                 for shape, seed in (((2, 2), 11), ((2, 1), 12))]
    products.append(fixtures.random_product(SuperSpace(3, 3), 13, 1, 2))  # as in random_super
    # purely even, and purely odd: the product of two odd elements is even,
    # so every product on 0|3 is zero and holds
    products += [fixtures.random_product(SuperSpace(*shape), seed)
                 for shape, seed in (((3, 0), 14), ((0, 3), 15))]
    for product in products:
        yield product
        yield commutator_superalgebra(product)


def test_orbit_walk_matches_the_full_walk(monkeypatch):
    # commutators of seeded products above 1|1 fail the Malcev identity and
    # are walked by orbits, some failing on orbits of size 2; the products
    # themselves fail anticommutativity, and fail on orbits of every size
    walks = {2: 0, 4: 0}  # degree of the first witness -> failing inputs
    sizes = {2: set(), 4: set()}  # the same -> orbit sizes of failing quadruples
    for A in malcev_walk_inputs():
        assert denominator(*algebra_constants(A)) in (1, 6)
        for limit in (1, 16, 10 ** 6):
            report, full = check_malcev(A, limit), full_malcev_walk(A, limit, monkeypatch)
            assert (report.violation_count, report.checked_tuples, report.witnesses) == (
                full.violation_count, full.checked_tuples, full.witnesses)
        if full.witnesses:
            first = len(full.witnesses[0][0])
            walks[first] += 1
            sizes[first] |= orbit_sizes(w for w, _ in full.witnesses if len(w) == 4)
    assert walks == {2: 22, 4: 19} and sizes == {2: {1, 2, 4}, 4: {2, 4}}


def test_the_count_past_the_witnesses_matches_the_full_walk_at_every_limit(monkeypatch):
    # past the last witness the later rotations of a failing least rotation
    # are counted in its block, so every limit up to the violation count
    # moves that boundary; the commutator is walked by orbits of the whole
    # residual, the product by orbits of its cyclic part
    product = fixtures.random_product(SuperSpace(2, 1), 1)
    for A in (commutator_superalgebra(product), product):
        count = check_malcev(A, 10 ** 6).violation_count
        assert count > 40
        for limit in range(1, count + 1):
            report, full = check_malcev(A, limit), full_malcev_walk(A, limit, monkeypatch)
            assert (report.violation_count, report.checked_tuples, report.witnesses) == (
                full.violation_count, full.checked_tuples, full.witnesses), limit


def koszul(order, parities):
    """The Koszul sign of the permutation that sorts the variables ``order``,
    variable v having parity ``parities[v]``."""
    return (-1) ** sum(parities[a] * parities[b]
                       for i, a in enumerate(order) for b in order[i + 1:] if a > b)


def malcev_parts(A):
    """J and C of the Malcev quadruple walk at every basis quadruple, from the
    dense table: J is the first summand of the walk's sum in ``_IDENTITIES``
    and C the sum of the other four, each summand signed by the Koszul sign of
    sorting its leaf order."""
    table, par = A.table("mul"), A.space.parities()
    n = A.space.dim
    (expr,) = _IDENTITIES["malcev"][1]

    def value(sub, q):
        if isinstance(sub, int):
            return basis(n, q[sub])
        return naive_mul(table, value(sub[1], q), value(sub[2], q))
    J, C = {}, {}
    for q in itertools.product(range(n), repeat=4):
        parts = [[Z] * n, [Z] * n]
        for s, (coef, sub) in enumerate(expr):
            (order,) = expanded_leaf_orders(sub)
            sign = coef * koszul(order, [par[i] for i in q])
            parts[s > 0] = vec_add(parts[s > 0], value(sub, q), Fraction(sign))
        J[q], C[q] = parts
    return J, C


@pytest.mark.parametrize("make, shape, seed", [
    # every product on 0|3 is zero, so 1|3 stands in for the purely odd shape
    (fixtures.random_product, (1, 3), 1), (fixtures.random_product, (3, 0), 2),
    (fixtures.random_product, (2, 2), 3), (rational_product, (1, 2), 4)])
def test_the_cyclic_part_of_the_malcev_identity_is_rotation_symmetric(make, shape, seed):
    # C(y,z,t,x) = (-1)^{|x|(|y|+|z|+|t|)} C(x,y,z,t) on every product, which
    # the quadruple walk of a product that fails anticommutativity relies on;
    # J = (xz)(yt) obeys it only on anticommutative products
    A = make(SuperSpace(*shape), seed)
    table, par, n = A.table("mul"), A.space.parities(), A.space.dim
    assert any(table[i][j][k] != -sgn(par[i], par[j]) * table[j][i][k]
               for i, j, k in itertools.product(range(n), repeat=3))
    J, C = malcev_parts(A)
    assert any(C.values())
    broken = False
    for x, y, z, t in C:
        sign = sgn(par[x], par[y] + par[z] + par[t])
        assert C[y, z, t, x] == [sign * c for c in C[x, y, z, t]], (x, y, z, t)
        broken |= J[y, z, t, x] != [sign * c for c in J[x, y, z, t]]
    assert broken


def test_the_cyclic_part_is_joined_once_per_rotation_orbit(monkeypatch):
    # on a dense product that fails anticommutativity, block a joins the four
    # rotations of ((xy)z)t only at the quadruples with no index below a, and
    # J = (xz)(yt) at every quadruple; the full walk would join all five
    # summands at every quadruple.  The commutator is walked by orbits.
    calls = []
    block = _Evaluator.block

    def recording(self, plans, a, low=0, out=None):
        values = block(self, plans, a, low, out)
        calls.append((len(plans), a, low,
                      {key: unpack(v, self.width) for key, v in values.items()}))
        return values
    monkeypatch.setattr(_Evaluator, "block", recording)
    A = fixtures.random_product(SuperSpace(2, 2), 3, 1, 2)
    n = A.space.dim
    assert len(algebra_constants(A)) == n ** 3 // 2  # every parity-allowed constant
    check_malcev(A)
    assert [(a, low) for summands, a, low, _ in calls if summands == 4] == [
        (a, a) for a in range(n)]
    assert [(a, low) for summands, a, low, values in calls
            if summands == 1 and any(len(key) == 4 for key in values)] == [
        (a, 0) for a in range(n)]
    assert not [call for call in calls if call[0] == 5]
    # what the joins of the cyclic part return is C, nonzero, at the
    # quadruples whose first index is their least
    _, C = malcev_parts(A)
    joined = {key: vector for summands, _, _, values in calls if summands == 4
              for key, vector in values.items()}
    assert {key: [vector.get(k, 0) for k in range(n)] for key, vector in joined.items()} == {
        q: c for q, c in C.items() if q[0] == min(q) and not is_zero(c)}
    calls.clear()
    check_malcev(commutator_superalgebra(A))
    assert [(a, low) for summands, a, low, _ in calls if summands == 5] == [
        (a, a) for a in range(n)]
    assert not [call for call in calls if call[0] == 4]


# -- the fold of a driven value per row partner ----------------------------------


def unfolded(monkeypatch):
    """Switch the fold off: every driven key is joined one entry at a time."""
    plan = _Evaluator.plan
    monkeypatch.setattr(_Evaluator, "plan", lambda self, expr: [
        summand[:-1] + (False,) for summand in plan(self, expr)])


def cancelling_fold():
    """A 3|0 product with constants ±1 whose folded sums cancel: the driven
    key (0, 1) holds b1 + b2, which J = (xz)(yt) folds through the rows
    (1, 0) and (2, 0), and pre-Malcev's [y,z](xt) through the rows (1, 1)
    and (1, 2); each pair sums to zero."""
    return Superalgebra.from_entries(SuperSpace(3, 0), {"mul": {
        (0, 1, 1): 1, (0, 1, 2): 1, (1, 0, 0): 1, (2, 0, 0): -1, (1, 1, 0): 1, (1, 2, 0): -1}})


def fold_inputs():
    """The Malcev walk's inputs (rational ones among them), a dense 4|4
    product, a dense odd-heavy 1|3 product and its commutator, and a
    product whose folded sums cancel."""
    yield from malcev_walk_inputs()
    yield fixtures.random_product(SuperSpace(4, 4), 5, 1, 2)
    odd = fixtures.random_product(SuperSpace(1, 3), 16, 1, 2)
    yield odd
    yield commutator_superalgebra(odd)
    yield cancelling_fold()


def test_the_fold_matches_the_join_per_entry(monkeypatch):
    # the fold sums each multi-entry driven value per row partner before the
    # other side's keys are walked; the reports are those of the join that
    # walks them once per entry, leftovers included
    for A in fold_inputs():
        for check in (check_malcev, check_pre_malcev):
            for limit in (1, 16, 10 ** 6):
                folded = check(A, limit)
                with monkeypatch.context() as patch:
                    unfolded(patch)
                    per_entry = check(A, limit)
                assert (folded.violation_count, folded.checked_tuples, folded.witnesses) == (
                    per_entry.violation_count, per_entry.checked_tuples, per_entry.witnesses)


def test_the_fold_matches_the_oracles_where_its_sums_cancel():
    # a cancelled sum leaves no zero leftover and no extra witness
    A = cancelling_fold()
    rows = A.rows()
    assert len(rows[0, 1]) == 2
    assert rows[1, 0][0] + rows[2, 0][0] == 0 == rows[1, 1][0] + rows[1, 2][0]
    odd = fixtures.random_product(SuperSpace(1, 3), 16, 1, 2)
    for B in (A, odd, commutator_superalgebra(odd), rational_product(SuperSpace(2, 2), 11)):
        for name in ("malcev", "pre-malcev"):
            assert assert_matches_the_oracle(B, name)  # and B fails the identity


def test_the_fold_cuts_the_multiply_adds_on_a_dense_product(monkeypatch):
    # 4|4 with every parity-allowed constant nonzero: Malcev 91 232 -> 44 128
    # packed multiply-adds, pre-Malcev 96 800 -> 71 968
    A = fixtures.random_product(SuperSpace(4, 4), 5, 1, 2)
    for check, most in ((check_malcev, Fraction(1, 2)), (check_pre_malcev, 1)):
        folded, work = multiply_adds(monkeypatch, check, A)
        with monkeypatch.context() as patch:
            unfolded(patch)
            per_entry, before = multiply_adds(patch, check, A)
        assert folded.violation_count == per_entry.violation_count > 0
        assert work <= most * before and work < before


# -- packed vectors ---------------------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 8, 61, 200])
def test_a_packed_vector_round_trips_at_the_edges_of_its_slots(width):
    # coefficients at +-(2^(width-1) - 1), sparse and dense, some with a
    # negative top slot: a slot read one bit off turns one of them around
    top = 2 ** (width - 1) - 1
    assert slot_width([[{0: top}]], 1, 1) == width
    assert slot_width([[{0: -top - 1}]], 1, 1) == width + 1
    for vec in ({0: top}, {0: -top}, {3: -top}, {0: top, 9: -top}, {2: -1, 5: top, 7: -top},
                {k: (-1) ** k * top for k in range(12)}, {**{k: top for k in range(5)}, 5: -top},
                {k: -top for k in range(6)}, {}):
        assert unpack(packed({(0, 0): vec}, width)[0, 0], width) == vec


def equal_constants(space, c):
    """The product whose every parity-allowed constant is c."""
    par, n = space.parities(), space.dim
    return Superalgebra(space, {"mul": {
        (i, j): {k: c for k in range(n) if par[k] == (par[i] + par[j]) % 2}
        for i, j in itertools.product(range(n), repeat=2)}})


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("top", [7, Fraction(-3, 2)])
def test_a_dense_product_of_equal_constants_matches_the_oracles(shape, top):
    # no two entries of a product of rows cancel, the worst case of the
    # slot bound: on 1|1 a Malcev value reaches the bound 5 * top^3 itself
    A = equal_constants(SuperSpace(*shape), top)
    for name in ("left-alternative", "right-alternative", "malcev", "pre-malcev"):
        expected = assert_matches_the_oracle(A, name)
        if name == "malcev" and shape == (1, 1):
            assert max(abs(c) for _, v in expected for c in v) == 5 * abs(top) ** 3


def prime_denominators(A):
    """A with the rows (i, j) and (j, i) of each pair i <= j divided by
    their own 7-digit prime."""
    primes = seven_digit_primes()
    rows, n = A.rows(), A.space.dim
    out = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        p = next(primes)
        for key in {(i, j), (j, i)} & rows.keys():
            out[key] = {k: c / p for k, c in rows[key].items()}
    return Superalgebra(A.space, {"mul": out})


def test_rows_with_distinct_prime_denominators_match_the_oracles():
    # ROADMAP item 12's shape at 2|2: the common denominator D is the
    # product of the primes, so a slot is about three scaled entries wide
    A = prime_denominators(commutator_superalgebra(fixtures.random_product(SuperSpace(2, 2), 1)))
    primes = {c.denominator for c in algebra_constants(A)}
    assert len(primes) == 7 and denominator(*algebra_constants(A)) == math.prod(primes)
    for name in ("malcev", "pre-malcev"):
        assert assert_matches_the_oracle(A, name)


def unit_brackets(space):
    """Every graded-anticommutative bracket on ``space`` with constants in
    {-1, 0, 1}, as its nonzero constants: those of [b_i, b_j], i <= j, are
    chosen freely where the parities allow, and
    [b_j, b_i] = -(-1)^{|b_i||b_j|} [b_i, b_j]."""
    par, n = space.parities(), space.dim
    free = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
            if par[k] == (par[i] + par[j]) % 2 and (i != j or par[i])]
    for values in itertools.product((-1, 0, 1), repeat=len(free)):
        entries = {}
        for (i, j, k), c in zip(free, values):
            if c:
                entries[i, j, k] = c
                entries[j, i, k] = -sgn(par[i], par[j]) * c
        yield entries


def parity_symmetries(space):
    """Each relabelling of the basis that keeps every parity, as a list
    old index -> new index, with each sign: the Malcev residual is cubic
    in the constants, and basis-free."""
    par = space.parities()
    even, odd = ([i for i in range(space.dim) if par[i] == p] for p in (0, 1))
    for new_even, new_odd in itertools.product(itertools.permutations(even),
                                               itertools.permutations(odd)):
        perm = [0] * space.dim
        for old, new in zip(even + odd, new_even + new_odd):
            perm[old] = new
        yield perm, 1
        yield perm, -1


def assert_unit_brackets_match_the_oracle(space, brackets):
    """Check ``brackets`` and every image of theirs under the parity
    symmetries against the oracle; the oracle runs once per orbit, and each
    bracket of the orbit is checked against its failures relabelled and
    signed.  Returns whether each bracket checked is Malcev."""
    seen, found = set(), []
    for entries in brackets:
        if frozenset(entries.items()) in seen:
            continue
        pairs, quads = oracle_malcev_failures(Superalgebra.from_entries(space, {"mul": entries}))
        assert not pairs
        for perm, sign in parity_symmetries(space):
            image = {(perm[i], perm[j], perm[k]): sign * c for (i, j, k), c in entries.items()}
            if frozenset(image.items()) in seen:
                continue
            seen.add(frozenset(image.items()))
            expected = sorted((tuple(perm[i] for i in q),
                               [sign * v[perm.index(k)] for k in range(space.dim)])
                              for q, v in quads.items())
            report = check_malcev(Superalgebra.from_entries(space, {"mul": image}), 10 ** 6)
            assert report.violation_count == len(expected)
            assert [(w, list(v.coords)) for w, v in report.witnesses] == expected
            found.append(report.ok)
    return found


@pytest.mark.parametrize("shape, brackets, members", [((1, 1), 9, 5), ((2, 1), 729, 57)])
def test_every_unit_bracket_on_a_small_space_matches_the_oracle(shape, brackets, members):
    # the whole small scope; on 2|1 the rows have two entries, so the fold
    # runs on J = (xz)(yt)
    found = assert_unit_brackets_match_the_oracle(SuperSpace(*shape), unit_brackets(SuperSpace(*shape)))
    assert (len(found), sum(found)) == (brackets, members)


def test_a_seeded_sample_of_the_unit_brackets_on_1_2_matches_the_oracle():
    # 155 of the 2187 brackets on 1|2 are Malcev; two of the three basis
    # vectors are odd, so most slots and Koszul signs are odd.  A seeded 60
    # and their images under the parity symmetries make 212 brackets
    space = SuperSpace(1, 2)
    sample = random.Random(12).sample(list(unit_brackets(space)), 60)
    found = assert_unit_brackets_match_the_oracle(space, sample)
    assert (len(found), sum(found)) == (212, 8)


def unit_products(space):
    """Every product on ``space`` with each parity-allowed constant in
    {-1, 0, 1}, anticommutative or not."""
    par, n = space.parities(), space.dim
    allowed = [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
               if par[k] == (par[i] + par[j]) % 2]
    for values in itertools.product((-1, 0, 1), repeat=len(allowed)):
        yield Superalgebra.from_entries(space, {"mul": {
            key: c for key, c in zip(allowed, values) if c}})


def test_every_unit_product_on_1_1_matches_the_oracles():
    # 4 parity-allowed constants, so 81 products; Malcev needs
    # anticommutativity, so its 5 are the Malcev brackets of the test above
    holding = {name: 0 for name in ("left-alternative", "right-alternative", "malcev",
                                    "pre-malcev")}
    products = list(unit_products(SuperSpace(1, 1)))
    for A in products:
        for name in holding:
            holding[name] += not assert_matches_the_oracle(A, name)
    assert len(products) == 81
    assert holding == {"left-alternative": 19, "right-alternative": 19, "malcev": 5,
                       "pre-malcev": 21}


def scaled_algebra(A, factor):
    return Superalgebra.from_entries(A.space, {
        name: {(i, j, k): factor * c for (i, j), row in A.rows(name).items()
               for k, c in row.items()}
        for name in A.product_names()})


def test_scaled_passing_cases_still_pass():
    # the identities are homogeneous, so scaling the product keeps them
    malcev = scaled_algebra(commutator_superalgebra(fixtures.split_octonions()), Fraction(1, 6))
    assert denominator(*algebra_constants(malcev)) > 1
    assert check_malcev(malcev).ok
    octonions = scaled_algebra(fixtures.split_octonions(), Fraction(1, 3))
    assert check_left_alternative(octonions).ok
    assert check_right_alternative(octonions).ok


@pytest.mark.parametrize("shape, seed", [((2, 2), 5), ((3, 3), 6)])
def test_functors_match_the_tables_with_denominators(shape, seed):
    space = SuperSpace(*shape)
    par = space.parities()
    n = space.dim
    A = rational_product(space, seed)
    P = rational_product(space, seed, two_products=True)
    table, prec, succ = A.table("mul"), P.table("prec"), P.table("succ")
    bracket = commutator_superalgebra(A).table("mul")
    total = sum_pre_alternative(P).table("mul")
    dot = pre_malcev_from_pre_alternative(P).table("mul")
    for i, j, k in itertools.product(range(n), repeat=3):
        s = sgn(par[i], par[j])
        assert bracket[i][j][k] == table[i][j][k] - s * table[j][i][k]
        assert total[i][j][k] == prec[i][j][k] + succ[i][j][k]
        assert dot[i][j][k] == succ[i][j][k] - s * prec[j][i][k]
    assert denominator(*algebra_constants(commutator_superalgebra(A))) > 1


# -- exact agreement with the oracles on sparse inputs -------------------------


def assert_matches_the_oracle(A, name):
    """The report of identity ``name`` on A equals its oracle's failures:
    count, witnesses, their order and leftovers, at witness limits 1, 3
    and 10**6."""
    checker, oracle, degree, _ = ORACLE_CASES[name]
    expected = list(oracle(A).items())
    for limit in (1, 3, 10 ** 6):
        report = checker(A, witness_limit=limit)
        assert report.violation_count == len(expected)
        assert report.checked_tuples == A.space.dim ** degree
        assert [(w, list(v.coords)) for w, v in report.witnesses] == expected[:limit]
    return expected


def succ_only(A):
    """The pair (prec, succ) = (0, mul) of a single-product algebra: its
    first compatibility identity is left alternativity, and its fourth the
    associativity of mul."""
    return Superalgebra(A.space, {"prec": {}, "succ": A.rows()})


# (shape, seed, share of the constants kept); most rows are zero
SPARSE_INPUTS = [((2, 2), 7, 0.25), ((3, 3), 8, 0.25), ((2, 2), 9, 0.5), ((3, 3), 10, 0.5)]


@pytest.mark.parametrize("shape, seed, keep", SPARSE_INPUTS)
@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_checkers_match_oracles_on_sparse_inputs(name, shape, seed, keep):
    space = SuperSpace(*shape)
    A = sparse_rational_product(space, seed, keep, two_products=ORACLE_CASES[name][3])
    allowed = len(A.product_names()) * space.dim ** 3 // 2  # parity-allowed constants
    assert 0 < len(algebra_constants(A)) <= (keep + 0.15) * allowed
    assert denominator(*algebra_constants(A)) > 1
    assert_matches_the_oracle(A, name)


@pytest.mark.parametrize("shape, seed, keep", SPARSE_INPUTS)
@pytest.mark.parametrize("name", ["left-alternative", "malcev"])
def test_checkers_match_oracles_on_sparse_commutators(name, shape, seed, keep):
    # graded-anticommutative, so check_malcev walks the quadruples by orbits
    C = commutator_superalgebra(sparse_rational_product(SuperSpace(*shape), seed, keep))
    expected = assert_matches_the_oracle(C, name)
    assert name != "malcev" or all(len(w) == 4 for w, _ in expected)


# label -> (algebra, the identities whose oracles fit in tier-1 time, the
# ones among them that hold); pre-alternative reads the pair succ_only(A)
CANCELLING = {
    "octonion commutator / 6": (
        lambda: scaled_algebra(commutator_superalgebra(fixtures.split_octonions()),
                               Fraction(1, 6)),
        list(ORACLE_CASES), {"malcev"}),
    "O (x) Lambda(xi1)": (
        lambda: fixtures.tensor_grassmann(fixtures.split_octonions(), 1),
        ["left-alternative", "right-alternative"], {"left-alternative", "right-alternative"}),
    "zero algebra": (lambda: fixtures.zero_algebra(2, 1), list(ORACLE_CASES), set(ORACLE_CASES)),
}


@pytest.mark.parametrize("label", list(CANCELLING))
def test_checkers_match_oracles_where_terms_cancel(label):
    make, names, holding = CANCELLING[label]
    A = make()
    failures = {name: assert_matches_the_oracle(succ_only(A) if ORACLE_CASES[name][3] else A, name)
                for name in names}
    assert {name for name in names if not failures[name]} == holding


def one_constant_changed(A):
    """A with 1 added to its last structure constant that reads an odd basis
    element: the terms of an identity still cancel exactly wherever they do
    not read that constant."""
    par = A.space.parities()
    (i, j), row = next((key, row) for key, row in reversed(A.rows().items())
                       if par[key[0]] | par[key[1]])
    k = next(iter(row))
    entries = {(a, b, c): x for (a, b), r in A.rows().items() for c, x in r.items()}
    entries[i, j, k] += 1
    return Superalgebra.from_entries(A.space, {"mul": entries})


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_checkers_match_oracles_where_some_components_cancel(name):
    # H (x) Lambda(xi1) is associative, so it satisfies every identity here
    # (Malcev on its commutator, pre-alternative as succ_only)
    checker, _, degree, two_products = ORACLE_CASES[name]

    def prepared(A):
        A = commutator_superalgebra(A) if name == "malcev" else A
        return succ_only(A) if two_products else A
    A = fixtures.tensor_grassmann(fixtures.quaternions(), 1)
    assert checker(prepared(A)).ok
    expected = assert_matches_the_oracle(prepared(one_constant_changed(A)), name)
    assert 0 < len(expected) < A.space.dim ** degree


@pytest.mark.parametrize("shape, seed, keep", SPARSE_INPUTS)
def test_functors_match_the_tables_on_sparse_inputs(shape, seed, keep):
    space = SuperSpace(*shape)
    par = space.parities()
    A = sparse_rational_product(space, seed, keep)
    P = sparse_rational_product(space, seed, keep, two_products=True)
    table, prec, succ = A.table("mul"), P.table("prec"), P.table("succ")
    bracket = commutator_superalgebra(A).table("mul")
    total = sum_pre_alternative(P).table("mul")
    dot = pre_malcev_from_pre_alternative(P).table("mul")
    for i, j, k in itertools.product(range(space.dim), repeat=3):
        s = sgn(par[i], par[j])
        assert bracket[i][j][k] == table[i][j][k] - s * table[j][i][k]
        assert total[i][j][k] == prec[i][j][k] + succ[i][j][k]
        assert dot[i][j][k] == succ[i][j][k] - s * prec[j][i][k]


# -- verdicts do not depend on the basis ---------------------------------------


def rota_baxter_pre_malcev_algebras():
    """The pre-Malcev algebras x.y = [R(x), y] of the Rota-Baxter operators
    on sl2 with entries in {-1, 0, 1}, three with the most constants."""
    sl2 = fixtures.sl2()
    algebras = [pre_malcev_from_rota_baxter(R, sl2) for R in search_rota_baxter(sl2, (-1, 0, 1))]
    return sorted(algebras, key=lambda P: -len(algebra_constants(P)))[:3]


def sparse_fixtures():
    O = fixtures.split_octonions()
    yield "split octonions", O
    yield "octonion commutator", commutator_superalgebra(O)
    yield "gl(1|1)", fixtures.general_linear(1, 1)
    for k, P in enumerate(rota_baxter_pre_malcev_algebras()):
        yield f"sl2 Rota-Baxter pre-Malcev {k}", P


REBASED_CHECKS = (check_left_alternative, check_right_alternative, check_malcev, check_pre_malcev)


def test_verdicts_survive_a_change_of_basis():
    # each algebra is checked once on its sparse fixture basis and once on a
    # basis where almost every constant is nonzero
    verdicts = []
    for seed, (label, A) in enumerate(sparse_fixtures()):
        B = rebased(A, even_unimodular(A.space, seed))
        assert len(algebra_constants(B)) > len(algebra_constants(A)), label
        for check in REBASED_CHECKS:
            verdicts.append(check(A).ok)
            assert check(B).ok == verdicts[-1], (label, check.__name__)
    assert any(verdicts) and not all(verdicts)


# -- work and memory follow the nonzero constants -------------------------------


@pytest.mark.parametrize("checker, degree", [
    (check_malcev, 4), (check_pre_malcev, 4), (check_left_alternative, 3)])
def test_work_and_memory_follow_the_nonzero_constants(checker, degree):
    # a handful of constants in MAX_DIM dimensions: a tuple with a basis
    # vector outside the small algebra has residual zero, so the failing
    # tuples are the small algebra's, relabelled in the same order
    small = sparse_rational_product(SuperSpace(2, 2), 7, 0.25)
    space = SuperSpace(MAX_DIM // 2, MAX_DIM // 2)
    position = (0, 1, MAX_DIM // 2, MAX_DIM // 2 + 1)
    for A in (small, commutator_superalgebra(small)):  # the second takes the orbit walk
        big = embedded(A, space, position)
        expected = checker(A, witness_limit=10 ** 6)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = checker(big, witness_limit=10 ** 6)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.checked_tuples == MAX_DIM ** degree
        assert report.violation_count == expected.violation_count
        assert [tuple(position[i] for i in w) for w, _ in expected.witnesses] == [
            w for w, _ in report.witnesses]
        assert seconds < 1.0
        assert peak < MAX_DIM ** 4 // 16  # a flag per tuple would take n^4 bytes


# -- the identity table -------------------------------------------------------

# identity -> the degree of each of its walks over basis tuples
WALK_DEGREES = {"left-alternative": [3], "right-alternative": [3], "malcev": [2, 4],
                "pre-malcev": [4], "pre-alternative": [3]}


def expanded_leaf_orders(expr):
    """The leaf order of each monomial of the fully expanded expression."""
    if isinstance(expr, int):
        return [(expr,)]
    if isinstance(expr[0], str):
        return [a + b for a in expanded_leaf_orders(expr[1])
                for b in expanded_leaf_orders(expr[2])]
    return [order for _, sub in expr for order in expanded_leaf_orders(sub)]


def test_every_summand_uses_each_variable_once():
    # the sign rule is sound only for multilinear terms
    assert set(_IDENTITIES) == set(WALK_DEGREES)
    for name, walks in _IDENTITIES.items():
        for walk, degree in zip(walks, WALK_DEGREES[name], strict=True):
            for component in walk:
                orders = expanded_leaf_orders(component)
                assert orders
                for order in orders:
                    assert sorted(order) == list(range(degree)), (name, order)
