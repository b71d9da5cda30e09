"""Seeded odd-graded inputs whose constants have denominators 2 to 6.

Each kind of input draws its denominators from its own set, so an identity
that reads several of them (an algebra and its action, or an operator and
its context) has a common denominator that is the lcm of theirs and not any
one of them.  In the checks of a representation (algebra, action and
operator) and of a bimodule (algebra, left and right action) each part
brings a prime power the others lack.
"""

import itertools
import math
import random

from supermalcev import GradedLinearMap, SuperSpace, Superalgebra
from supermalcev import _linalg, fixtures

# kind of input -> the denominators its constants are divided by
DENOMINATORS = {
    "mul": (2, 3),
    "prec": (2, 4),
    "succ": (3,),
    "action": (5,),
    "left": (4,),
    "right": (5,),
    "operator": (4,),
}


def rational_product(space: SuperSpace, seed: int, two_products: bool = False) -> Superalgebra:
    """``fixtures.random_product`` with each constant divided by a denominator
    drawn from its product's set."""
    A = fixtures.random_product(space, seed, two_products=two_products)
    rng = random.Random(seed)
    return Superalgebra.from_entries(space, {
        name: {(i, j, k): c / rng.choice(DENOMINATORS[name])
               for (i, j), row in A.rows(name).items() for k, c in row.items()}
        for name in A.product_names()})


def divided(m: GradedLinearMap, kind: str, rng: random.Random) -> GradedLinearMap:
    """``m`` with each entry divided by a denominator drawn from ``kind``'s set."""
    rows = tuple(tuple(c / rng.choice(DENOMINATORS[kind]) for c in row) for row in m.matrix)
    return GradedLinearMap(m.domain, m.codomain, rows, m.parity)


def rational_action(A: Superalgebra, V: SuperSpace, seed: int,
                    kind: str = "action") -> tuple[GradedLinearMap, ...]:
    rng = random.Random(seed)
    return tuple(divided(m, kind, rng) for m in fixtures.random_action_maps(A, V, seed))


def rational_operator(domain: SuperSpace, codomain: SuperSpace, seed: int) -> GradedLinearMap:
    """A seeded even operator with each entry divided by a denominator from
    the operator set, except in its first nonzero column: a column of
    integers beside fractional ones must be scaled by the same D."""
    rng = random.Random(seed)
    m = fixtures.random_even_matrix(domain, codomain, 0, rng)
    T = divided(m, "operator", rng)
    keep = next(c for c in range(domain.dim) if any(row[c] for row in m.matrix))
    rows = tuple(tuple(m.matrix[r][c] if c == keep else v for c, v in enumerate(row))
                 for r, row in enumerate(T.matrix))
    return GradedLinearMap(domain, codomain, rows, 0)


def rebased(A: Superalgebra, P) -> Superalgebra:
    """The product of A in the basis b'_j = sum_i P[i][j] b_i, for an even
    invertible P; rational entries of P give its constants denominators."""
    n = A.space.dim
    Q = _linalg.invert(P)
    entries: dict = {}
    for (a, b), row in A.rows().items():
        for m, c in row.items():
            for i, j, k in itertools.product(range(n), repeat=3):
                entries[(i, j, k)] = entries.get((i, j, k), 0) + P[a][i] * P[b][j] * c * Q[k][m]
    return Superalgebra.from_entries(A.space, {"mul": entries})


def denominator(*values) -> int:
    """The lcm of the denominators of the given constants."""
    return math.lcm(*(c.denominator for c in values))


def algebra_constants(A: Superalgebra):
    return [c for name in A.product_names() for row in A.rows(name).values()
            for c in row.values()]


def map_constants(*maps: GradedLinearMap):
    return [c for m in maps for row in m.matrix for c in row]
