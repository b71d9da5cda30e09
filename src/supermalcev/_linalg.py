"""Exact sparse elimination over the rationals.

A sparse vector maps indices to nonzero ``Fraction``s, the form every map,
2-tensor and form stores (``graded``).  ``rref`` is the one elimination;
``invert`` reduces the rows of ``[M^T | 1]`` with it, and callers decide
invertibility and rank by its pivots (square, with a pivot in every
column).  Sizes never exceed a few dozen rows, so no pivoting beyond "first
nonzero" is needed.  ``Matrix`` and ``freeze`` serve the dense public
constructors.  Two helpers have no caller in the package
(``tests/test_dead_helpers.py``): the benchmark tracer
``perfbench/tracing.py`` counts the calls of ``mat_mul`` and ``solve`` by
name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ._kernel import add_scaled

Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(as_scalar(x) for x in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} * {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def rref(rows: Sequence[Mapping[int, Fraction]],
         ncols: int) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """The reduced row echelon form of the matrix with these sparse rows and
    ``ncols`` columns: its nonzero rows, one per pivot, and the tuple of
    pivot column indices."""
    m = [dict(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(m)) if col in m[r]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = ONE / m[row][col]
        m[row] = {k: x * inv for k, x in m[row].items()}
        for r, other in enumerate(m):
            if r != row and col in other:
                add_scaled(other, m[row], -other[col])
        pivots.append(col)
    return m[:len(pivots)], tuple(pivots)


def invert(columns: Sequence[Mapping[int, Fraction]], n: int) -> list[dict[int, Fraction]]:
    """The sparse columns of M^{-1}, for the n x n matrix M with these sparse
    columns.  The rows ``[column_j | e_j]`` of ``[M^T | 1]`` reduce to
    ``[1 | (M^T)^{-1}]``, whose rows are the columns of M^{-1}; raises
    ValueError unless M is square with a pivot in every column."""
    if len(columns) != n:
        raise ValueError("inverse of a non-square matrix")
    reduced, pivots = rref([{**column, n + j: ONE} for j, column in enumerate(columns)], 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return [{k - n: x for k, x in row.items() if k >= n} for row in reduced]


def solve(rows: Sequence[Mapping[int, Fraction]],
          rhs: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The sparse x with M x = rhs, for the square nonsingular M with these
    sparse rows: the last column of the reduced ``[M | rhs]``."""
    n = len(rows)
    reduced, pivots = rref([{**row, n: rhs[i]} if i in rhs else row
                            for i, row in enumerate(rows)], n + 1)
    if pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return {i: row[n] for i, row in enumerate(reduced) if n in row}
