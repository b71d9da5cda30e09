"""The sparse elimination of ``_linalg`` against the dense oracle
``dense_linalg``, and the guard that no eliminating path rebuilds a dense
matrix.

``rref``, ``invert`` and ``solve`` read and return sparse vectors.  On seeded
rational matrices of several densities and shapes, singular and
rank-deficient ones among them, they must give the dense oracle's pivots,
reduced rows, inverses and solutions, with no stored zero."""

import random
from fractions import Fraction

import pytest

from supermalcev import (
    GradedLinearMap,
    adjoint_representation,
    are_equivalent,
    canonical_r,
    check_symplectic,
    classify_form,
    compatible_pre_malcev_from_invertible_oop,
    induced_structure_on_image,
    left_multiplication_representation,
    pre_malcev_from_invertible_rota_baxter,
    pre_malcev_from_symplectic,
    symplectic_from_r,
)
from supermalcev import _linalg, fixtures, graded
from rational_inputs import rational_rows
import dense_linalg

Z = Fraction(0)
DENSITIES = (0.1, 0.3, 0.6, 1.0)


def dense(rows, ncols):
    return tuple(tuple(row.get(j, Z) for j in range(ncols)) for row in rows)


def sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def low_rank_rows(nrows, ncols, rank, seed):
    """``nrows`` seeded rational combinations of ``rank`` seeded rows, so
    the matrix has rank at most ``rank``."""
    basis, rng = rational_rows(rank, ncols, 0.6, seed), random.Random(-seed)
    rows = []
    for _ in range(nrows):
        coefficients = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in basis]
        row = {j: sum(c * b.get(j, Z) for c, b in zip(coefficients, basis)) for j in range(ncols)}
        rows.append({j: x for j, x in row.items() if x})
    return rows


def rref_cases():
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 6), (8, 5), (5, 9)]
    for seed, (nrows, ncols) in enumerate(shapes):
        for keep in DENSITIES:
            yield f"{nrows}x{ncols}-{keep}", rational_rows(nrows, ncols, keep, 100 * seed), ncols
    for seed, (nrows, ncols, rank) in enumerate([(4, 4, 2), (6, 6, 5), (7, 4, 3), (3, 8, 1),
                                                  (6, 6, 0)]):
        yield f"{nrows}x{ncols}-rank{rank}", low_rank_rows(nrows, ncols, rank, seed + 1), ncols


RREF = list(rref_cases())


@pytest.mark.parametrize("rows, ncols", [case[1:] for case in RREF],
                         ids=[case[0] for case in RREF])
def test_rref_matches_the_dense_oracle(rows, ncols):
    before = [dict(row) for row in rows]
    reduced, pivots = _linalg.rref(rows, ncols)
    want, want_pivots = dense_linalg.rref(dense(rows, ncols))
    assert pivots == want_pivots
    assert dense(reduced, ncols) == want[:len(pivots)]
    assert not any(any(row) for row in want[len(pivots):])
    assert all(type(x) is Fraction and x for row in reduced for x in row.values())
    assert rows == before  # the input rows are read, never changed


def square_cases():
    for n in range(7):
        for keep in DENSITIES:
            for seed in range(3):
                yield f"{n}-{keep}-{seed}", rational_rows(n, n, keep, 1000 * n + seed), n
    for seed, (n, rank) in enumerate([(3, 2), (5, 4), (6, 3)]):
        yield f"{n}-rank{rank}", low_rank_rows(n, n, rank, 50 + seed), n


SQUARE = list(square_cases())


@pytest.mark.parametrize("columns, n", [case[1:] for case in SQUARE],
                         ids=[case[0] for case in SQUARE])
def test_invert_matches_the_dense_oracle(columns, n):
    matrix = tuple(zip(*dense(columns, n))) if n else ()  # M, whose columns these are
    try:
        want = dense_linalg.invert(matrix)
    except ValueError as exc:
        assert str(exc) == "singular matrix"
        with pytest.raises(ValueError, match="^singular matrix$"):
            _linalg.invert(columns, n)
        return
    inverse = _linalg.invert(columns, n)
    assert inverse == sparse(zip(*want))
    assert all(type(x) is Fraction and x for column in inverse for x in column.values())


@pytest.mark.parametrize("rows, n", [case[1:] for case in SQUARE],
                         ids=[case[0] for case in SQUARE])
def test_solve_matches_the_dense_oracle(rows, n):
    rhs = rational_rows(1, n, 0.5, n)[0] if n else {}
    try:
        want = dense_linalg.solve(dense(rows, n), dense([rhs], n)[0] if n else ())
    except ValueError as exc:
        assert str(exc) == "singular matrix"
        with pytest.raises(ValueError, match="^singular matrix$"):
            _linalg.solve(rows, rhs)
        return
    assert _linalg.solve(rows, rhs) == sparse([want])[0]


def test_the_square_cases_hold_singular_and_invertible_matrices():
    singular = sum(1 for _, columns, n in SQUARE
                   if len(dense_linalg.rref(dense(columns, n))[1]) < n)
    assert 10 <= singular <= len(SQUARE) - 10


def test_invert_refuses_a_non_square_matrix():
    for columns, n in (([{0: Fraction(1)}, {1: Fraction(1)}], 3),
                       ([{0: Fraction(1)}, {1: Fraction(1)}, {}], 2)):
        with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
            _linalg.invert(columns, n)
        with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
            dense_linalg.invert(tuple(zip(*dense(columns, n))))


def eliminating_calls():
    """The calls that eliminate, each on a small input built beforehand."""
    sl2, P, heis = fixtures.sl2(), fixtures.pre_lie_sl2(), fixtures.heisenberg_1_1()
    ad, L = adjoint_representation(sl2), left_multiplication_representation(P)
    m = GradedLinearMap(sl2.space, sl2.space, ((1, 2, 0), (0, 1, 0), (0, 0, 3)))
    c = canonical_r(fixtures.pre_malcev_1_1())
    omega = symplectic_from_r(c)
    return {
        "is_invertible": lambda: m.is_invertible(),
        "inverse": lambda: m.inverse(),
        "are_equivalent": lambda: are_equivalent(ad, ad, GradedLinearMap.identity(ad.space)),
        "induced_structure_on_image":
            lambda: induced_structure_on_image(fixtures.rb_sl2_nilpotent(), ad),
        "classify_form": lambda: classify_form(omega, c.algebra),
        "check_symplectic": lambda: check_symplectic(omega, c.algebra),
        "pre_malcev_from_symplectic": lambda: pre_malcev_from_symplectic(omega, c.algebra),
        "symplectic_from_r": lambda: symplectic_from_r(c),
        "compatible_pre_malcev_from_invertible_oop":
            lambda: compatible_pre_malcev_from_invertible_oop(GradedLinearMap.identity(P.space), L),
        "pre_malcev_from_invertible_rota_baxter": lambda: pre_malcev_from_invertible_rota_baxter(
            GradedLinearMap(heis.space, heis.space, ((1, 0), (0, 2))), heis),
    }


@pytest.mark.parametrize("name", [
    "is_invertible", "inverse", "are_equivalent", "induced_structure_on_image", "classify_form",
    "check_symplectic", "pre_malcev_from_symplectic", "symplectic_from_r",
    "compatible_pre_malcev_from_invertible_oop", "pre_malcev_from_invertible_rota_baxter"])
def test_no_eliminating_path_rebuilds_a_dense_matrix(monkeypatch, name):
    # graded._dense is the one function that rebuilds .matrix and .coeffs
    call = eliminating_calls()[name]
    want = call()

    def refuse(*args):
        raise AssertionError("a dense matrix was rebuilt")
    monkeypatch.setattr(graded, "_dense", refuse)
    assert call() == want
