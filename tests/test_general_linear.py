"""The associative matrix superalgebras gl(m|n): odd-graded positive
instances beyond dimension 2, for the alternative and Malcev checkers, the
multiplication actions, and the paper's chain from Rota-Baxter operators to
solutions of the MYBE."""

import itertools

import pytest

from supermalcev import (
    adjoint_representation,
    canonical_r,
    check_alternative_bimodule,
    check_left_alternative,
    check_malcev,
    check_malcev_representation,
    check_operator_form,
    check_right_alternative,
    commutator_superalgebra,
    mybe_lhs,
    pre_malcev_from_rota_baxter,
    regular_bimodule,
    search_rota_baxter,
    semidirect_malcev,
)
from supermalcev import fixtures


def _units(G):
    """The (row, column) of each matrix unit, read off its label."""
    return [(int(label[1]) - 1, int(label[2]) - 1) for label in G.space.labels]


@pytest.mark.parametrize("m, n, shape", [(1, 1, (2, 2)), (2, 1, (5, 4)), (1, 2, (5, 4))])
def test_general_linear_is_the_matrix_product_of_the_units(m, n, shape):
    G = fixtures.general_linear(m, n)
    assert (G.space.even_dim, G.space.odd_dim) == shape
    units = _units(G)
    assert sorted(units) == sorted(itertools.product(range(m + n), repeat=2))
    for a, (i, j) in enumerate(units):
        assert G.space.parity(a) == (i >= m) ^ (j >= m)
    # E_ij E_kl = delta_jk E_il
    for (a, (i, j)), (b, (k, l)) in itertools.product(enumerate(units), repeat=2):
        expected = {units.index((i, l)): 1} if j == k else {}
        assert G.mul_basis(a, b) == expected


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1)])
def test_general_linear_is_alternative_and_its_bracket_malcev(m, n):
    G = fixtures.general_linear(m, n)
    bracket = commutator_superalgebra(G)
    ad = adjoint_representation(bracket)
    size = G.space.dim
    reports = (
        (check_left_alternative(G), size ** 3),
        (check_right_alternative(G), size ** 3),
        (check_malcev(bracket), size ** 4),
        (check_alternative_bimodule(regular_bimodule(G)), size ** 2),
        (check_malcev_representation(ad), size ** 3),
        # the semidirect-product criterion: ad is a representation, so the
        # semidirect product is Malcev
        (check_malcev(semidirect_malcev(ad)), (2 * size) ** 4),
    )
    for report, tuples in reports:
        assert report.ok
        assert report.checked_tuples == tuples


def test_every_gl_1_1_rota_baxter_operator_gives_a_mybe_solution():
    bracket = commutator_superalgebra(fixtures.general_linear(1, 1))
    found = search_rota_baxter(bracket, values=(-1, 0, 1))
    assert len(found) == 101
    for T in found:
        c = canonical_r(pre_malcev_from_rota_baxter(T, bracket))
        assert (c.algebra.space.even_dim, c.algebra.space.odd_dim) == (4, 4)
        assert mybe_lhs(c).is_zero()
        assert check_operator_form(c).ok
