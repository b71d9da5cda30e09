"""Dense Gauss-Jordan elimination over the rationals: the oracle for the
sparse elimination of ``supermalcev._linalg``, and the reader of dense
matrices in the test oracles.

Matrices are tuples of row tuples of Fraction.  ``rref`` takes the same
first-nonzero pivot as the package, and ``invert`` and ``solve`` raise the
same ``ValueError`` message on a singular input.
"""

from fractions import Fraction
from typing import Sequence

from supermalcev._linalg import ONE, ZERO, Matrix, freeze


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def invert(a: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan; raises ValueError on a singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    return tuple(row[n:] for row in _reduce_augmented(a, identity_matrix(n)))


def solve(a: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve a*x = rhs for square nonsingular a."""
    return tuple(row[-1] for row in _reduce_augmented(a, [(b,) for b in rhs]))


def _reduce_augmented(a: Matrix, b: Sequence[Sequence]) -> Matrix:
    """rref of [a | b] for square a; raises ValueError unless every column
    of a has a pivot, so that the left block reduces to the identity."""
    n = len(a)
    reduced, pivots = rref(freeze([tuple(row) + tuple(extra) for row, extra in zip(a, b)]))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return reduced


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices."""
    if not a:
        return (), ()
    nrows, ncols = len(a), len(a[0])
    m = [list(row) for row in a]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = ONE / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return tuple(tuple(r) for r in m), tuple(pivots)


def nullspace(a: Matrix, ncols: int | None = None) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the kernel of a, as coordinate tuples of length ncols."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if not a:
        return tuple(identity_matrix(ncols))
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return tuple(basis)
