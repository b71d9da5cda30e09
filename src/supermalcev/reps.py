"""Representations of Malcev superalgebras, bimodules of alternative
superalgebras, dual/coadjoint representations, and the two semidirect
product constructions.

Actions are stored per algebra basis element: ``action[i]`` is the graded
linear map for ``b_i`` and must have parity ``|b_i|`` (that is what it
means for the action map into gl(V) to be even).  Linearity in the algebra
argument holds by construction and is never checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _linalg
from ._linalg import ONE, ZERO
from .graded import (
    GradedLinearMap,
    GradedVector,
    ParityViolation,
    SuperSpace,
    direct_sum,
    koszul_sign,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Sparse,
    Superalgebra,
    ViolationReport,
    _add_scaled,
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

    def act_matrix(self, coords: Mapping[int, Fraction]) -> _linalg.Matrix:
        """Matrix of rho(x) for an algebra element given by sparse coords."""
        n = self.space.dim
        out = [[ZERO] * n for _ in range(n)]
        for i, c in coords.items():
            m = self.action[i].matrix
            for r in range(n):
                row = m[r]
                for s in range(n):
                    if row[s] != 0:
                        out[r][s] += c * row[s]
        return tuple(tuple(row) for row in out)

    def act_sparse(self, coords: Mapping[int, Fraction],
                   v: Mapping[int, Fraction]) -> Sparse:
        """rho(x) v for sparse algebra coords x and sparse module vector v."""
        out: Sparse = {}
        for i, c in coords.items():
            _add_scaled(out, self.action[i].apply_sparse(v), c)
        return out


@dataclass(frozen=True)
class Bimodule:
    algebra: Superalgebra
    space: SuperSpace
    left: tuple[GradedLinearMap, ...]
    right: tuple[GradedLinearMap, ...]

    def __post_init__(self):
        _validate_action(self.algebra, self.space, self.left, "bimodule left action")
        _validate_action(self.algebra, self.space, self.right, "bimodule right action")


# -- checkers ------------------------------------------------------------


def _first_bad_column(residual: _linalg.Matrix) -> int:
    ncols = len(residual[0]) if residual else 0
    for j in range(ncols):
        if any(row[j] != 0 for row in residual):
            return j
    return -1


def _column_vector(space: SuperSpace, m: _linalg.Matrix, j: int) -> GradedVector:
    return GradedVector(space, tuple(row[j] for row in m))


def check_malcev_representation(R: Representation,
                                witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Defining operator identity of a Malcev representation, as matrix
    equalities on V over all homogeneous basis triples of A.

    A failing triple (i,j,k) is witnessed as (i,j,k,col) together with the
    residual applied to the module basis vector ``col``.
    """
    col = _WitnessCollector("representation", witness_limit)
    A = R.algebra
    n = A.space.dim
    par = A.space.parities()
    mats = [m.matrix for m in R.action]
    mul = _linalg.mat_mul
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = R.act_matrix(A.mul_sparse(A.mul_basis(i, j), {k: ONE}))
        rhs = mul(mul(mats[i], mats[j]), mats[k])
        t2 = mul(mats[k], mul(mats[i], mats[j]))
        rhs = _linalg.mat_sub(rhs, _linalg.mat_scale(
            Fraction(koszul_sign(par[k], par[i] + par[j])), t2))
        s = Fraction(koszul_sign(par[i], par[j] + par[k]))
        t3 = mul(mats[j], R.act_matrix(A.mul_basis(k, i)))
        rhs = _linalg.mat_add(rhs, _linalg.mat_scale(s, t3))
        t4 = mul(R.act_matrix(A.mul_basis(j, k)), mats[i])
        rhs = _linalg.mat_sub(rhs, _linalg.mat_scale(s, t4))
        residual = _linalg.mat_sub(lhs, rhs)
        col.tick()
        if not _linalg.is_zero_matrix(residual):
            bad = _first_bad_column(residual)
            col.add((i, j, k, bad), _column_vector(R.space, residual, bad))
    return col.report()


def check_alternative_bimodule(B: Bimodule,
                               witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The four operator identities of an alternative bimodule over all
    homogeneous basis pairs of A.

    Witness index tuples are (identity#, i, j, col) with identity# in 0..3;
    ``checked_tuples`` counts basis pairs.
    """
    col = _WitnessCollector("bimodule", witness_limit)
    A = B.algebra
    n = A.space.dim
    par = A.space.parities()
    L = [m.matrix for m in B.left]
    Rm = [m.matrix for m in B.right]
    mul = _linalg.mat_mul

    def lof(coords: Mapping[int, Fraction]) -> _linalg.Matrix:
        out = _linalg.zero_matrix(B.space.dim, B.space.dim)
        for i, c in coords.items():
            out = _linalg.mat_add(out, _linalg.mat_scale(c, L[i]))
        return out

    def rof(coords: Mapping[int, Fraction]) -> _linalg.Matrix:
        out = _linalg.zero_matrix(B.space.dim, B.space.dim)
        for i, c in coords.items():
            out = _linalg.mat_add(out, _linalg.mat_scale(c, Rm[i]))
        return out

    for i, j in itertools.product(range(n), repeat=2):
        col.tick()
        s = Fraction(koszul_sign(par[i], par[j]))
        xy = A.mul_basis(i, j)
        yx = A.mul_basis(j, i)
        residuals = (
            # l(xy) + s l(yx) - l(x)l(y) - s l(y)l(x)
            _linalg.mat_sub(
                _linalg.mat_add(lof(xy), _linalg.mat_scale(s, lof(yx))),
                _linalg.mat_add(mul(L[i], L[j]), _linalg.mat_scale(s, mul(L[j], L[i])))),
            # r(y)r(x) + s r(x)r(y) - r(xy) - s r(yx)
            _linalg.mat_sub(
                _linalg.mat_add(mul(Rm[j], Rm[i]), _linalg.mat_scale(s, mul(Rm[i], Rm[j]))),
                _linalg.mat_add(rof(xy), _linalg.mat_scale(s, rof(yx)))),
            # r(y)r(x) + s r(y)l(x) - s l(x)r(y) - r(xy)
            _linalg.mat_sub(
                _linalg.mat_add(mul(Rm[j], Rm[i]), _linalg.mat_scale(s, mul(Rm[j], L[i]))),
                _linalg.mat_add(_linalg.mat_scale(s, mul(L[i], Rm[j])), rof(xy))),
            # r(y)l(x) + s l(xy) - s l(x)l(y) - l(x)r(y)
            _linalg.mat_sub(
                _linalg.mat_add(mul(Rm[j], L[i]), _linalg.mat_scale(s, lof(xy))),
                _linalg.mat_add(_linalg.mat_scale(s, mul(L[i], L[j])), mul(L[i], Rm[j]))),
        )
        for q, res in enumerate(residuals):
            if not _linalg.is_zero_matrix(res):
                bad = _first_bad_column(res)
                col.add((q, i, j, bad), _column_vector(B.space, res, bad))
    return col.report()


# -- constructions -------------------------------------------------------


def semidirect_malcev(R: Representation) -> Superalgebra:
    """Bracket on A + V:  [x+a, y+b] = [x,y] + rho(x)b - (-1)^{|x||y|} rho(y)a."""
    A = R.algebra
    total, emb_a, emb_v = direct_sum(A.space, R.space)
    entries: dict[tuple[int, int, int], Fraction] = {}
    nA, nV = A.space.dim, R.space.dim
    for i in range(nA):
        for j in range(nA):
            for k, c in A.mul_basis(i, j).items():
                entries[(emb_a[i], emb_a[j], emb_a[k])] = c
    for i in range(nA):
        mat = R.action[i].matrix
        pi = A.space.parity(i)
        for j in range(nV):
            for k in range(nV):
                c = mat[k][j]
                if c != 0:
                    entries[(emb_a[i], emb_v[j], emb_v[k])] = c
                    s = koszul_sign(R.space.parity(j), pi)
                    entries[(emb_v[j], emb_a[i], emb_v[k])] = -s * c
    return Superalgebra.from_entries(total, {"mul": entries})


def semidirect_alternative(B: Bimodule) -> Superalgebra:
    """Product on A + V:  (x+a)(y+b) = xy + l(x)b + r(y)a."""
    A = B.algebra
    total, emb_a, emb_v = direct_sum(A.space, B.space)
    entries: dict[tuple[int, int, int], Fraction] = {}
    nA, nV = A.space.dim, B.space.dim
    for i in range(nA):
        for j in range(nA):
            for k, c in A.mul_basis(i, j).items():
                entries[(emb_a[i], emb_a[j], emb_a[k])] = c
    for i in range(nA):
        lmat = B.left[i].matrix
        rmat = B.right[i].matrix
        for j in range(nV):
            for k in range(nV):
                if lmat[k][j] != 0:
                    entries[(emb_a[i], emb_v[j], emb_v[k])] = lmat[k][j]
                if rmat[k][j] != 0:
                    entries[(emb_v[j], emb_a[i], emb_v[k])] = rmat[k][j]
    return Superalgebra.from_entries(total, {"mul": entries})


def dual_representation(R: Representation) -> Representation:
    """rho* on V* determined by <rho*(x)a*, b> = -(-1)^{|x||a*|} <a*, rho(x)b>."""
    dual_space = R.space.dual()
    n = R.space.dim
    maps = []
    for i in range(R.algebra.space.dim):
        p = R.algebra.space.parity(i)
        m = R.action[i].matrix
        rows = tuple(
            tuple(
                Fraction(-koszul_sign(p, R.space.parity(jj))) * m[jj][ii]
                for jj in range(n)
            )
            for ii in range(n)
        )
        maps.append(GradedLinearMap(dual_space, dual_space, rows, p))
    return Representation(R.algebra, dual_space, tuple(maps))


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


def adjoint_representation(A: Superalgebra, product: str = "mul") -> Representation:
    """ad(x)y = x*y; a Malcev representation when A is a Malcev superalgebra."""
    table = A.table(product)
    n = A.space.dim
    maps = tuple(
        GradedLinearMap(
            A.space, A.space,
            tuple(tuple(table[i][j][k] for j in range(n)) for k in range(n)),
            A.space.parity(i),
        )
        for i in range(n)
    )
    return Representation(A, A.space, maps)


def coadjoint_representation(A: Superalgebra, product: str = "mul") -> Representation:
    """ad* = dual of the adjoint representation."""
    return dual_representation(adjoint_representation(A, product))


def left_multiplication_representation(P: Superalgebra, product: str = "mul") -> Representation:
    """L_x y = x.y of a pre-Malcev algebra, as a representation of its
    sub-adjacent (commutator) Malcev superalgebra.

    This is the representation for which the identity map is an invertible
    O-operator recovering the compatible pre-Malcev structure.
    """
    table = P.table(product)
    n = P.space.dim
    maps = tuple(
        GradedLinearMap(
            P.space, P.space,
            tuple(tuple(table[i][j][k] for j in range(n)) for k in range(n)),
            P.space.parity(i),
        )
        for i in range(n)
    )
    return Representation(commutator_superalgebra(P, product), P.space, maps)


def regular_bimodule(A: Superalgebra, product: str = "mul") -> Bimodule:
    """l = left multiplication, r = right multiplication on A itself."""
    table = A.table(product)
    n = A.space.dim
    left = tuple(
        GradedLinearMap(
            A.space, A.space,
            tuple(tuple(table[i][j][k] for j in range(n)) for k in range(n)),
            A.space.parity(i),
        )
        for i in range(n)
    )
    right = tuple(
        GradedLinearMap(
            A.space, A.space,
            tuple(tuple(table[j][i][k] for j in range(n)) for k in range(n)),
            A.space.parity(i),
        )
        for i in range(n)
    )
    return Bimodule(A, A.space, left, right)


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
    for i in range(R.algebra.space.dim):
        col.tick()
        residual = _linalg.mat_sub(
            _linalg.mat_mul(phi.matrix, R.action[i].matrix),
            _linalg.mat_mul(Rp.action[i].matrix, phi.matrix),
        )
        if not _linalg.is_zero_matrix(residual):
            bad = _first_bad_column(residual)
            col.add((i, bad), _column_vector(Rp.space, residual, bad))
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
