"""Ready-made algebras, actions, and seeded generators used by tests,
demos, and the CLI fixture files.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ._linalg import ONE, ZERO
from .graded import GradedLinearMap, SuperSpace
from .algebras import Superalgebra


def zero_algebra(even_dim: int = 1, odd_dim: int = 0) -> Superalgebra:
    space = SuperSpace(even_dim, odd_dim)
    return Superalgebra.from_entries(space, {"mul": {}})


def sl2() -> Superalgebra:
    """sl(2) with [h,e] = 2e, [h,f] = -2f, [e,f] = h; purely even."""
    space = SuperSpace(3, 0, ("h", "e", "f"))
    return Superalgebra.from_entries(space, {"mul": {
        (0, 1, 1): 2, (1, 0, 1): -2,
        (0, 2, 2): -2, (2, 0, 2): 2,
        (1, 2, 0): 1, (2, 1, 0): -1,
    }})


def _cayley_dickson_double(entries, conj, gamma: int):
    """One doubling step: (a,b)(c,d) = (ac + g*conj(d)b, da + b*conj(c)).

    ``entries`` maps (i, j, k) to the nonzero coefficient of e_k in e_i e_j;
    ``conj`` is the diagonal of the conjugation in the current basis
    (standard involution: fixes the unit, negates the imaginary units).
    """
    n = len(conj)
    g = Fraction(gamma)
    new = {}
    for (i, j, k), c in entries.items():
        # (e_i,0)(e_j,0) = (e_i e_j, 0)
        new[(i, j, k)] = c
        # (0,e_i)(e_j,0): second component b*conj(c), b=e_i, c=e_j
        new[(n + i, j, n + k)] = conj[j] * c
        # (e_j,0)(0,e_i): second component d*a, d=e_i, a=e_j
        new[(j, n + i, n + k)] = c
        # (0,e_j)(0,e_i): first component g*conj(d)*b, d=e_i, b=e_j
        new[(n + j, n + i, k)] = g * conj[i] * c
    return new, list(conj) + [-ONE] * n


def cayley_dickson_algebra(gammas: tuple[int, ...]) -> Superalgebra:
    """Iterated Cayley-Dickson doubling of the rationals; purely even."""
    entries = {(0, 0, 0): ONE}
    conj = [ONE]
    for g in gammas:
        entries, conj = _cayley_dickson_double(entries, conj, g)
    return Superalgebra.from_entries(SuperSpace(len(conj), 0), {"mul": entries})


def split_octonions() -> Superalgebra:
    """The 8-dimensional split octonion algebra over Q (gammas -1, -1, +1)."""
    return cayley_dickson_algebra((-1, -1, 1))


def quaternions() -> Superalgebra:
    return cayley_dickson_algebra((-1, -1))


def zorn_split_octonions() -> Superalgebra:
    """Split octonions in the Zorn vector-matrix basis
    (u, u', x1..x3, y1..y3); the nilpotent directions are basis elements,
    which makes integer grid searches for Rota-Baxter operators fruitful."""
    space = SuperSpace(8, 0, ("u", "u'", "x1", "x2", "x3", "y1", "y2", "y3"))
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    entries: dict[tuple[int, int, int], int] = {
        (0, 0, 0): 1, (1, 1, 1): 1,
    }
    X = lambda i: 2 + i
    Y = lambda i: 5 + i
    for i in range(3):
        entries[(0, X(i), X(i))] = 1      # u x = x
        entries[(X(i), 1, X(i))] = 1      # x u' = x
        entries[(1, Y(i), Y(i))] = 1      # u' y = y
        entries[(Y(i), 0, Y(i))] = 1      # y u = y
        entries[(X(i), Y(i), 0)] = 1      # x_i y_i = u
        entries[(Y(i), X(i), 1)] = 1      # y_i x_i = u'
    for (i, j, k), s in eps.items():
        entries[(X(i), X(j), Y(k))] = s   # x_i x_j = eps y_k
        entries[(Y(i), Y(j), X(k))] = -s  # y_i y_j = -eps x_k
    return Superalgebra.from_entries(space, entries={"mul": entries})


def general_linear(m: int, n: int) -> Superalgebra:
    """The associative matrix superalgebra gl(m|n) on the matrix units
    E_ij = e_i e_j^T, E_ij E_jl = E_il, with |E_ij| = |i| + |j| for the
    first m indices even and the last n odd.  The even units come first,
    each block in row-major order."""
    par = lambda i: int(i >= m)
    units = sorted(itertools.product(range(m + n), repeat=2),
                   key=lambda ij: par(ij[0]) ^ par(ij[1]))
    index = {unit: k for k, unit in enumerate(units)}
    even = m * m + n * n
    space = SuperSpace(even, len(units) - even, tuple(f"E{i + 1}{j + 1}" for i, j in units))
    return Superalgebra.from_entries(space, {"mul": {
        (index[(i, j)], index[(j, l)], index[(i, l)]): 1
        for i, j in units for l in range(m + n)}})


def heisenberg_1_1() -> Superalgebra:
    """1|1 Lie superalgebra with [f,f] = e and e central."""
    space = SuperSpace(1, 1)
    return Superalgebra.from_entries(space, {"mul": {(1, 1, 0): 1}})


def affine_1_1() -> Superalgebra:
    """1|1 Lie superalgebra with [e,f] = f."""
    space = SuperSpace(1, 1)
    return Superalgebra.from_entries(space, {"mul": {(0, 1, 1): 1, (1, 0, 1): -1}})


def grassmann_1_1() -> Superalgebra:
    """The Grassmann algebra on one odd generator: unital, f*f = 0."""
    space = SuperSpace(1, 1)
    return Superalgebra.from_entries(space, {"mul": {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
    }})


def clifford_1_1() -> Superalgebra:
    """The Z2-graded Clifford algebra on one odd generator: f*f = e (unit)."""
    space = SuperSpace(1, 1)
    return Superalgebra.from_entries(space, {"mul": {
        (0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1,
    }})


def pre_malcev_1_1() -> Superalgebra:
    """1|1 pre-Malcev product f.f = 2e (from the Rota-Baxter map diag(1,2)
    on the Heisenberg bracket)."""
    space = SuperSpace(1, 1)
    return Superalgebra.from_entries(space, {"mul": {(1, 1, 0): 2}})


def rb_sl2_nilpotent() -> GradedLinearMap:
    """Rota-Baxter map on sl(2): f -> e, everything else -> 0."""
    space = sl2().space
    return GradedLinearMap(space, space, (
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 0),
    ), 0)


def pre_lie_sl2() -> Superalgebra:
    """Pre-Lie (hence pre-Malcev) product x.y = [R(x), y] on sl(2) for the
    Rota-Baxter map of ``rb_sl2_nilpotent``."""
    space = SuperSpace(3, 0, ("h", "e", "f"))
    return Superalgebra.from_entries(space, {"mul": {
        (2, 0, 1): -2, (2, 2, 0): 1,
    }})


def random_product(space: SuperSpace, seed: int, low: int = -2, high: int = 2,
                   two_products: bool = False) -> Superalgebra:
    """Seeded parity-homogeneous product table; generically satisfies no
    identity at all."""
    rng = random.Random(seed)
    names = ("prec", "succ") if two_products else ("mul",)
    n = space.dim
    entries = {}
    for name in names:
        sparse = {}
        for i in range(n):
            for j in range(n):
                target = (space.parity(i) + space.parity(j)) % 2
                for k in range(n):
                    if space.parity(k) == target:
                        c = rng.randint(low, high)
                        if c:
                            sparse[(i, j, k)] = c
        entries[name] = sparse
    return Superalgebra.from_entries(space, entries)


def random_even_matrix(domain: SuperSpace, codomain: SuperSpace, parity: int,
                       rng: random.Random, low: int = -2, high: int = 2) -> GradedLinearMap:
    rows = []
    for i in range(codomain.dim):
        row = []
        for j in range(domain.dim):
            if codomain.parity(i) == (domain.parity(j) + parity) % 2:
                row.append(Fraction(rng.randint(low, high)))
            else:
                row.append(ZERO)
        rows.append(tuple(row))
    return GradedLinearMap(domain, codomain, tuple(rows), parity)


def random_action_maps(A: Superalgebra, V: SuperSpace, seed: int,
                       low: int = -2, high: int = 2) -> tuple[GradedLinearMap, ...]:
    """Seeded family of maps rho(b_i) on V with the parity pattern of an
    even action; generically not a representation."""
    rng = random.Random(seed)
    return tuple(
        random_even_matrix(V, V, A.space.parity(i), rng, low, high)
        for i in range(A.space.dim)
    )
