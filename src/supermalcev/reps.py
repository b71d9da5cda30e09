"""Representations of Malcev superalgebras, bimodules of alternative
superalgebras, dual/coadjoint representations, and the two semidirect
product constructions.

Actions are stored per algebra basis element: ``action[i]`` is the graded
linear map for ``b_i`` and must have parity ``|b_i|`` (that is what it
means for the action map into gl(V) to be even).  Linearity in the algebra
argument holds by construction and is never checked.

The checkers, the semidirect products and the O-operator engine in
``operators`` read an action through its sparse columns (``_Columns``):
the image of each module basis vector under each ``action[i]``.  An
identity between operators on V is decided column by column, on one
module basis vector at a time, and a failing tuple is witnessed by its
first nonzero residual column.  The multiplication representations are
filled from the algebra's sparse rows.

Actions and leftovers are public ``Fraction`` values; a checker computes
in integers.  It scales the algebra's rows and the action columns it reads
by their common denominator D (``_kernel``), so every term of a residual
is D^p times the rational one, with p the number of scaled factors per
term (3 for the representation identity, 2 for the bimodule identities and
for an equivalence).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._kernel import (
    EMPTY,
    Vector,
    act,
    add_scaled,
    apply,
    denominator,
    mul,
    scaled,
    scaled_columns,
    scaled_rows,
    unscaled,
)
from ._linalg import ZERO
from .graded import (
    GradedLinearMap,
    ParityViolation,
    SuperSpace,
    direct_sum,
    koszul_sign,
    vector_from_sparse,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Sparse,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
    commutator_superalgebra,
)


def _validate_action(algebra: Superalgebra, space: SuperSpace,
                     maps: tuple[GradedLinearMap, ...], what: str):
    if len(maps) != algebra.space.dim:
        raise ValueError(f"{what}: one map per algebra basis element required")
    for i, m in enumerate(maps):
        if m.domain.dim != space.dim or m.codomain.dim != space.dim:
            raise ValueError(f"{what}: map {i} does not act on the module space")
        if m.parity != algebra.space.parity(i):
            raise ParityViolation(
                f"{what}: map for basis element {i} has parity {m.parity}, "
                f"expected {algebra.space.parity(i)}"
            )


@dataclass(frozen=True)
class Representation:
    algebra: Superalgebra
    space: SuperSpace
    action: tuple[GradedLinearMap, ...]

    def __post_init__(self):
        _validate_action(self.algebra, self.space, self.action, "representation")


@dataclass(frozen=True)
class Bimodule:
    algebra: Superalgebra
    space: SuperSpace
    left: tuple[GradedLinearMap, ...]
    right: tuple[GradedLinearMap, ...]

    def __post_init__(self):
        _validate_action(self.algebra, self.space, self.left, "bimodule left action")
        _validate_action(self.algebra, self.space, self.right, "bimodule right action")


# -- actions as sparse columns -------------------------------------------

# _Columns[k][j]: the action of the algebra basis element b_k on the module
# basis vector b_j, as a sparse vector of V
_Columns = tuple[tuple[Vector, ...], ...]


def _columns(maps: tuple[GradedLinearMap, ...]) -> _Columns:
    return tuple(m.columns for m in maps)


def _witness_first_column(col: _WitnessCollector, indices: tuple[int, ...],
                          space: SuperSpace, scale: int, terms):
    """Witness ``indices + (c,)`` for the first module basis vector b_c whose
    residual column, the sum of factor * vector over the (factor, vector)
    pairs of ``terms(c)``, is nonzero, if there is one.  The residual is
    ``scale`` times the rational one."""
    for c in range(space.dim):
        res: dict = {}
        for factor, v in terms(c):
            add_scaled(res, v, factor)
        if res:
            col.add(indices + (c,), lambda: vector_from_sparse(space, unscaled(res, scale)))
            return


# -- checkers ------------------------------------------------------------


def check_malcev_representation(R: Representation,
                                witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Defining operator identity of a Malcev representation on V over all
    homogeneous basis triples of A, decided column by column:

        rho((xy)z) = rho(x)rho(y)rho(z) - (-1)^{|z|(|x|+|y|)} rho(z)rho(x)rho(y)
                     + s rho(y)rho(zx) - s rho(yz)rho(x),  s = (-1)^{|x|(|y|+|z|)}

    A failing triple (i,j,k) is witnessed as (i,j,k,col) together with the
    residual applied to the first module basis vector ``col`` it does not
    annihilate.
    """
    col = _WitnessCollector("representation", witness_limit)
    A = R.algebra
    n = A.space.dim
    par = A.space.parities()
    rows, rho = A.rows(), _columns(R.action)
    D = denominator(rows.values(), *rho)
    rows, rho = scaled_rows(rows, D), scaled_columns(rho, D)
    for i, j, k in itertools.product(range(n), repeat=3):
        xyz = mul(rows, rows.get((i, j), EMPTY), {k: 1})
        zx, yz = rows.get((k, i), EMPTY), rows.get((j, k), EMPTY)
        s2 = koszul_sign(par[k], par[i] + par[j])
        s = koszul_sign(par[i], par[j] + par[k])
        col.tick()
        _witness_first_column(col, (i, j, k), R.space, D ** 3, lambda c: (
            (1, act(rho, xyz, c)),
            (-1, apply(rho[i], apply(rho[j], rho[k][c]))),
            (s2, apply(rho[k], apply(rho[i], rho[j][c]))),
            (-s, apply(rho[j], act(rho, zx, c))),
            *((s * a, act(rho, yz, b)) for b, a in rho[i][c].items()),
        ))
    return col.report()


def check_alternative_bimodule(B: Bimodule,
                               witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The four operator identities of an alternative bimodule over all
    homogeneous basis pairs of A, decided column by column.

    Witness index tuples are (identity#, i, j, col) with identity# in 0..3
    and ``col`` the first module basis vector the residual does not
    annihilate; ``checked_tuples`` counts basis pairs.
    """
    col = _WitnessCollector("bimodule", witness_limit)
    A = B.algebra
    n = A.space.dim
    par = A.space.parities()
    rows, L, R = A.rows(), _columns(B.left), _columns(B.right)
    D = denominator(rows.values(), *L, *R)
    rows, L, R = scaled_rows(rows, D), scaled_columns(L, D), scaled_columns(R, D)
    for i, j in itertools.product(range(n), repeat=2):
        col.tick()
        s = koszul_sign(par[i], par[j])
        xy, yx = rows.get((i, j), EMPTY), rows.get((j, i), EMPTY)
        identities = (
            # l(xy) + s l(yx) - l(x)l(y) - s l(y)l(x)
            lambda c: ((1, act(L, xy, c)), (s, act(L, yx, c)),
                       (-1, apply(L[i], L[j][c])), (-s, apply(L[j], L[i][c]))),
            # r(y)r(x) + s r(x)r(y) - r(xy) - s r(yx)
            lambda c: ((1, apply(R[j], R[i][c])), (s, apply(R[i], R[j][c])),
                       (-1, act(R, xy, c)), (-s, act(R, yx, c))),
            # r(y)r(x) + s r(y)l(x) - s l(x)r(y) - r(xy)
            lambda c: ((1, apply(R[j], R[i][c])), (s, apply(R[j], L[i][c])),
                       (-s, apply(L[i], R[j][c])), (-1, act(R, xy, c))),
            # r(y)l(x) + s l(xy) - s l(x)l(y) - l(x)r(y)
            lambda c: ((1, apply(R[j], L[i][c])), (s, act(L, xy, c)),
                       (-s, apply(L[i], L[j][c])), (-1, apply(L[i], R[j][c]))),
        )
        for q, terms in enumerate(identities):
            _witness_first_column(col, (q, i, j), B.space, D ** 2, terms)
    return col.report()


# -- constructions -------------------------------------------------------


def _embedded_product(A: Superalgebra,
                      emb: tuple[int, ...]) -> dict[tuple[int, int, int], Fraction]:
    """The product of A as triples, with A's basis sent to the indices ``emb``."""
    return {(emb[i], emb[j], emb[k]): c
            for (i, j), row in A.rows().items() for k, c in row.items()}


def semidirect_malcev(R: Representation) -> Superalgebra:
    """Bracket on A + V:  [x+a, y+b] = [x,y] + rho(x)b - (-1)^{|x||y|} rho(y)a."""
    A = R.algebra
    total, emb_a, emb_v = direct_sum(A.space, R.space)
    entries = _embedded_product(A, emb_a)
    for i, columns in enumerate(_columns(R.action)):
        pi = A.space.parity(i)
        for j, column in enumerate(columns):
            s = koszul_sign(R.space.parity(j), pi)
            for k, c in column.items():
                entries[(emb_a[i], emb_v[j], emb_v[k])] = c
                entries[(emb_v[j], emb_a[i], emb_v[k])] = -s * c
    return Superalgebra.from_entries(total, {"mul": entries})


def semidirect_alternative(B: Bimodule) -> Superalgebra:
    """Product on A + V:  (x+a)(y+b) = xy + l(x)b + r(y)a."""
    A = B.algebra
    total, emb_a, emb_v = direct_sum(A.space, B.space)
    entries = _embedded_product(A, emb_a)
    for i, (left, right) in enumerate(zip(_columns(B.left), _columns(B.right))):
        for j in range(B.space.dim):
            for k, c in left[j].items():
                entries[(emb_a[i], emb_v[j], emb_v[k])] = c
            for k, c in right[j].items():
                entries[(emb_v[j], emb_a[i], emb_v[k])] = c
    return Superalgebra.from_entries(total, {"mul": entries})


def _dual_columns(columns: _Columns, algebra: SuperSpace, module: SuperSpace) -> _Columns:
    """The columns of rho* on V* from those of rho: <rho*(x)a*, b> =
    -(-1)^{|x||a*|} <a*, rho(x)b>, so column jj of rho*(b_i) holds
    -(-1)^{|i||jj|} <b_jj*, rho(b_i) b_ii> at row ii."""
    apar, vpar = algebra.parities(), module.parities()
    dual = []
    for i, cols in enumerate(columns):
        out: dict[int, Sparse] = {}
        for ii, column in enumerate(cols):
            for jj, c in column.items():
                out.setdefault(jj, {})[ii] = -koszul_sign(apar[i], vpar[jj]) * c
        dual.append(tuple(out.get(jj, EMPTY) for jj in range(module.dim)))
    return tuple(dual)


def _adjoint_columns(A: Superalgebra) -> _Columns:
    """ad(b_k) b_j = b_k b_j, read off the rows."""
    n, rows = A.space.dim, A.rows()
    return tuple(tuple(rows.get((k, j), EMPTY) for j in range(n)) for k in range(n))


def dual_representation(R: Representation) -> Representation:
    """rho* on V* determined by <rho*(x)a*, b> = -(-1)^{|x||a*|} <a*, rho(x)b>."""
    dual_space = R.space.dual()
    n = R.space.dim
    return Representation(R.algebra, dual_space, tuple(
        GradedLinearMap(dual_space, dual_space,
                        tuple(tuple(cols[c].get(r, ZERO) for c in range(n)) for r in range(n)),
                        R.algebra.space.parity(i))
        for i, cols in enumerate(_dual_columns(_columns(R.action), R.algebra.space, R.space))))


def rep_from_bimodule(B: Bimodule) -> Representation:
    """rho(x)v = l(x)v - (-1)^{|x||v|} r(x)v over the commutator algebra.

    The Koszul sign depends on the parity of the module argument, so the
    matrix of rho(b_i) is assembled column-block by column-block.
    """
    bracket = commutator_superalgebra(B.algebra)
    n = B.space.dim
    maps = []
    for i in range(B.algebra.space.dim):
        p = B.algebra.space.parity(i)
        lmat, rmat = B.left[i].matrix, B.right[i].matrix
        rows = tuple(
            tuple(
                lmat[r][c] - koszul_sign(p, B.space.parity(c)) * rmat[r][c]
                for c in range(n)
            )
            for r in range(n)
        )
        maps.append(GradedLinearMap(B.space, B.space, rows, p))
    return Representation(bracket, B.space, tuple(maps))


def _multiplication_maps(A: Superalgebra, right: bool = False) -> tuple[GradedLinearMap, ...]:
    """Left multiplications y -> b_i y, or with ``right`` y -> y b_i, one
    matrix per basis element b_i, filled from the sparse rows."""
    n = A.space.dim
    mats = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in A.rows().items():
        for k, c in row.items():
            if right:
                mats[j][k][i] = c
            else:
                mats[i][k][j] = c
    return tuple(GradedLinearMap(A.space, A.space, m, A.space.parity(i))
                 for i, m in enumerate(mats))


def adjoint_representation(A: Superalgebra) -> Representation:
    """ad(x)y = x*y; a Malcev representation when A is a Malcev superalgebra."""
    return Representation(A, A.space, _multiplication_maps(A))


def coadjoint_representation(A: Superalgebra) -> Representation:
    """ad* = dual of the adjoint representation."""
    return dual_representation(adjoint_representation(A))


def left_multiplication_representation(P: Superalgebra) -> Representation:
    """L_x y = x.y of a pre-Malcev algebra, as a representation of its
    sub-adjacent (commutator) Malcev superalgebra.

    This is the representation for which the identity map is an invertible
    O-operator recovering the compatible pre-Malcev structure.
    """
    return Representation(commutator_superalgebra(P), P.space, _multiplication_maps(P))


def regular_bimodule(A: Superalgebra) -> Bimodule:
    """l = left multiplication, r = right multiplication on A itself."""
    return Bimodule(A, A.space, _multiplication_maps(A), _multiplication_maps(A, right=True))


def are_equivalent(R: Representation, Rp: Representation,
                   phi: GradedLinearMap,
                   witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Checks that phi intertwines the two actions: phi rho(x) = rho'(x) phi.

    phi must be an even bijection V -> V'; a failing algebra index i is
    witnessed as (i, col) with the residual column.
    """
    col = _WitnessCollector("equivalence", witness_limit)
    if phi.parity != 0:
        col.preconditions.append("phi is not even")
    elif not phi.is_invertible():
        col.preconditions.append("phi is not bijective")
    if col.preconditions:
        return col.report()
    phi_cols = phi.columns
    rho, rho_p = _columns(R.action), _columns(Rp.action)
    D = denominator(phi_cols, *rho, *rho_p)
    phi_cols = tuple(scaled(v, D) for v in phi_cols)
    rho, rho_p = scaled_columns(rho, D), scaled_columns(rho_p, D)
    for i in range(R.algebra.space.dim):
        col.tick()
        _witness_first_column(col, (i,), Rp.space, D ** 2, lambda c: (
            (1, apply(phi_cols, rho[i][c])), (-1, apply(rho_p[i], phi_cols[c]))))
    return col.report()


def double_dual_identification(space: SuperSpace) -> GradedLinearMap:
    """The canonical even isomorphism V -> V** induced by
    <a*, b> = (-1)^{|a*||b|} <b, a*>: identity on the even part, minus
    identity on the odd part."""
    dd = space.dual().dual()
    n = space.dim
    rows = tuple(
        tuple(
            (Fraction(koszul_sign(space.parity(i), space.parity(i)))
             if i == j else ZERO)
            for j in range(n)
        )
        for i in range(n)
    )
    return GradedLinearMap(space, dd, rows, 0)
