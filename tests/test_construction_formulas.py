"""Each construction's product, compared with its formula written on dense
matrices: the products induced by an O-operator, the pre-alternative pair,
both compatible structures and both semidirect products.

The inputs are odd and rational where a passing operator exists: every
Rota-Baxter operator of the gl(1|1) bracket and every O-operator of the
regular bimodule of gl(1|1) with entries in (-1, 0, 1), and the invertible
diag(1, 2) on the 1|1 Heisenberg bracket, each also scaled by 2/3 (the
O-operator identity is homogeneous of degree 2 in T); the
canonical r of the 1|1 pre-Malcev fixture and of its product scaled by 2/3;
and seeded rational 2|2 actions for the semidirect products, which need no
identity to hold.  A dense action matrix M of b_p maps b_j to
sum_k M[k][j] b_k, and an operator's matrix T has T[p][a] the coefficient
of b_p in T(b_a)."""

import itertools
from fractions import Fraction

import pytest

from supermalcev import (
    Bimodule,
    GradedLinearMap,
    Representation,
    SuperSpace,
    Superalgebra,
    adjoint_representation,
    canonical_r,
    commutator_superalgebra,
    compatible_pre_malcev_from_invertible_oop,
    direct_sum,
    koszul_sign,
    left_multiplication_representation,
    pre_alternative_from_o_operator,
    pre_malcev_from_invertible_rota_baxter,
    pre_malcev_from_o_operator,
    pre_malcev_from_rota_baxter,
    pre_malcev_on_dual_from_r,
    r_as_map,
    regular_bimodule,
    search_o_operators_alternative,
    search_rota_baxter,
    semidirect_alternative,
    semidirect_malcev,
)
from supermalcev import fixtures
from rational_inputs import rational_action, rational_product
import dense_linalg

TWO_THIRDS = Fraction(2, 3)


def with_two_thirds(operators):
    return [scale * T for T in operators for scale in (1, TWO_THIRDS)]


def mat_mul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                       for col in zip(*b)) for row in a)


def table_of(n, entry):
    """The dense table c[i][j][k] = entry(i, j, k)."""
    return tuple(tuple(tuple(entry(i, j, k) for k in range(n)) for j in range(n))
                 for i in range(n))


def induced(T, maps):
    """The table of a.b = action(T b_a) b_b on V: sum_p T[p][a] maps[p][k][b]."""
    return table_of(len(T[0]), lambda a, b, k: sum(
        (T[p][a] * maps[p][k][b] for p in range(len(T))), Fraction(0)))


def left_mult(m):
    """The matrix of b_p -> b_p b_j for each p, from the table m."""
    n = len(m)
    return [tuple(tuple(m[p][j][k] for j in range(n)) for k in range(n)) for p in range(n)]


def right_mult(m):
    n = len(m)
    return [tuple(tuple(m[j][p][k] for j in range(n)) for k in range(n)) for p in range(n)]


def coadjoint(m, par):
    """ad*(b_p) on A*: <ad*(x) a*, b> = -(-1)^{|x||a*|} <a*, x b>, so its
    matrix holds -(-1)^{|p||jj|} m[p][ii][jj] at row ii, column jj."""
    n = len(m)
    return [tuple(tuple(-koszul_sign(par[p], par[jj]) * m[p][ii][jj] for jj in range(n))
                  for ii in range(n)) for p in range(n)]


def compatible(T, maps):
    """The table of x.y = T(action(x) T^{-1} y) on A."""
    tinv = dense_linalg.invert(T)
    conj = [mat_mul(mat_mul(T, M), tinv) for M in maps]
    return table_of(len(T), lambda i, j, k: conj[i][k][j])


def semidirect(A, V, left, right):
    """The table of (x+a)(y+b) = xy + left(x)b + right(y)a on A + V, with
    ``right(i, j, k)`` the coefficient of v_k in right(b_i) v_j."""
    total, emb_a, emb_v = direct_sum(A.space, V)
    t = [[[Fraction(0)] * total.dim for _ in range(total.dim)] for _ in range(total.dim)]
    m = A.table()
    for i, j, k in itertools.product(range(A.space.dim), repeat=3):
        t[emb_a[i]][emb_a[j]][emb_a[k]] = m[i][j][k]
    for i, j, k in itertools.product(range(A.space.dim), range(V.dim), range(V.dim)):
        t[emb_a[i]][emb_v[j]][emb_v[k]] = left[i][k][j]
        t[emb_v[j]][emb_a[i]][emb_v[k]] = right(i, j, k)
    return total, tuple(tuple(map(tuple, plane)) for plane in t)


def gl11_bracket():
    return commutator_superalgebra(fixtures.general_linear(1, 1))


def test_o_operator_and_rota_baxter_products_match_their_formulas():
    bracket = gl11_bracket()
    ad = adjoint_representation(bracket)
    m = bracket.table()
    for T in with_two_thirds(search_rota_baxter(bracket, values=(-1, 0, 1))):
        expected = induced(T.matrix, left_mult(m))
        assert pre_malcev_from_o_operator(T, ad).table() == expected
        assert pre_malcev_from_rota_baxter(T, bracket).table() == expected


def scaled_pre_malcev_1_1():
    P = fixtures.pre_malcev_1_1()
    return Superalgebra.from_entries(P.space, {"mul": {
        (i, j, k): TWO_THIRDS * c for (i, j), row in P.rows().items() for k, c in row.items()}})


def diagonal(space, entries):
    return GradedLinearMap(space, space, tuple(
        tuple(Fraction(entries[i]) if i == j else 0 for j in range(space.dim))
        for i in range(space.dim)), 0)


def test_compatible_structures_match_their_formula():
    # no gl(1|1) hit is invertible; diag(1, 2) is an invertible Rota-Baxter
    # operator of the 1|1 Heisenberg bracket, and every nonzero multiple of
    # the identity an O-operator for the left multiplication of a pre-Malcev
    # product
    heis = fixtures.heisenberg_1_1()
    for R in with_two_thirds([diagonal(heis.space, [1, 2])]):
        expected = compatible(R.matrix, left_mult(heis.table()))
        assert pre_malcev_from_invertible_rota_baxter(R, heis).table() == expected
        assert compatible_pre_malcev_from_invertible_oop(
            R, adjoint_representation(heis)).table() == expected
    for P in (fixtures.pre_malcev_1_1(), scaled_pre_malcev_1_1()):
        T = Fraction(-5, 7) * GradedLinearMap.identity(P.space)
        expected = compatible(T.matrix, left_mult(P.table()))
        assert compatible_pre_malcev_from_invertible_oop(
            T, left_multiplication_representation(P)).table() == expected


def test_pre_alternative_pair_matches_its_formula():
    G = fixtures.general_linear(1, 1)
    B = regular_bimodule(G)
    m = G.table()
    hits = search_o_operators_alternative(B, values=(-1, 0, 1))
    # some hit maps the odd part of gl(1|1) to itself
    assert any(T.matrix[i][j] for T in hits for i in (2, 3) for j in (2, 3))
    for T in with_two_thirds(hits):
        P = pre_alternative_from_o_operator(T, B)
        t = T.matrix
        assert P.table("succ") == induced(t, left_mult(m))
        # a prec b = r(T b) a
        prec = induced(t, right_mult(m))
        assert P.table("prec") == table_of(len(m), lambda a, b, k: prec[b][a][k])


def test_dual_product_of_canonical_r_matches_its_formula():
    for c in (canonical_r(fixtures.pre_malcev_1_1()), canonical_r(scaled_pre_malcev_1_1())):
        ad_star = coadjoint(c.algebra.table(), c.algebra.space.parities())
        assert pre_malcev_on_dual_from_r(c).table() == induced(r_as_map(c).matrix, ad_star)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semidirect_products_of_rational_actions_match_their_formulas(seed):
    space = SuperSpace(2, 2)
    A, V = rational_product(space, seed), SuperSpace(2, 2, ("v1", "v2", "w1", "w2"))
    par_a, par_v = space.parities(), V.parities()
    R = Representation(A, V, rational_action(A, V, seed))
    rho = [M.matrix for M in R.action]
    total, expected = semidirect(
        A, V, rho, lambda i, j, k: -koszul_sign(par_a[i], par_v[j]) * rho[i][k][j])
    S = semidirect_malcev(R)
    assert S.space == total and S.table() == expected
    B = Bimodule(A, V, rational_action(A, V, seed, "left"),
                 rational_action(A, V, seed + 1, "right"))
    left, right = [M.matrix for M in B.left], [M.matrix for M in B.right]
    total, expected = semidirect(A, V, left, lambda i, j, k: right[i][k][j])
    S = semidirect_alternative(B)
    assert S.space == total and S.table() == expected
