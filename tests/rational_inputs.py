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
from fractions import Fraction

from supermalcev import GradedLinearMap, SuperSpace, Superalgebra
from supermalcev import fixtures
import dense_linalg

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


def sparse_rational_product(space: SuperSpace, seed: int, keep: float,
                            two_products: bool = False) -> Superalgebra:
    """``rational_product`` with each constant kept with probability ``keep``
    and the others set to zero."""
    A = rational_product(space, seed, two_products)
    rng = random.Random(-seed)
    return Superalgebra.from_entries(space, {
        name: {(i, j, k): c for (i, j), row in A.rows(name).items() for k, c in row.items()
               if rng.random() < keep}
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
    Q = dense_linalg.invert(P)
    entries: dict = {}
    for (a, b), row in A.rows().items():
        for m, c in row.items():
            for i, j, k in itertools.product(range(n), repeat=3):
                entries[(i, j, k)] = entries.get((i, j, k), 0) + P[a][i] * P[b][j] * c * Q[k][m]
    return Superalgebra.from_entries(A.space, {"mul": entries})


def rational_rows(nrows: int, ncols: int, keep: float, seed: int) -> list[dict]:
    """Seeded sparse rows of an nrows x ncols matrix: each entry is kept with
    probability ``keep``, as a nonzero integer from -3 to 3 over a
    denominator from 1 to 6."""
    rng = random.Random(seed)
    return [{j: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6))
             for j in range(ncols) if rng.random() < keep} for _ in range(nrows)]


def shuffled(mapping, rng):
    """The same mapping with its items in a random insertion order."""
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


def embedded(A: Superalgebra, space: SuperSpace, position) -> Superalgebra:
    """A's product on the basis vectors ``position[i]`` of a larger space,
    whose other basis vectors multiply to zero with everything."""
    return Superalgebra(space, {name: {(position[i], position[j]): {position[k]: c
                                                                    for k, c in row.items()}
                                       for (i, j), row in A.rows(name).items()}
                                for name in A.product_names()})


def even_unimodular(space: SuperSpace, seed: int) -> tuple:
    """A seeded even integer matrix with an integer inverse: the product of
    a lower and an upper unit-triangular factor, zero off the parity blocks.
    Next to the diagonal a factor's entries are 1 or -1, and further from
    it they are 1 or -1 with probability 1/3 and 0 otherwise."""
    rng = random.Random(seed)
    n, par = space.dim, space.parities()

    def entry(i, j, below):
        if i == j:
            return 1
        if (i > j) != below or par[i] != par[j] or abs(i - j) > 1 and rng.random() >= 1 / 3:
            return 0
        return rng.choice((-1, 1))
    L, U = ([[entry(i, j, below) for j in range(n)] for i in range(n)] for below in (True, False))
    return tuple(tuple(sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def seven_digit_primes():
    """The primes from 10**6 up, in order."""
    return (p for p in itertools.count(10 ** 6)
            if all(p % d for d in range(2, math.isqrt(p) + 1)))


def denominator(*values) -> int:
    """The lcm of the denominators of the given constants."""
    return math.lcm(*(c.denominator for c in values))


def algebra_constants(A: Superalgebra):
    return [c for name in A.product_names() for row in A.rows(name).values()
            for c in row.values()]


def map_constants(*maps: GradedLinearMap):
    return [c for m in maps for row in m.matrix for c in row]
