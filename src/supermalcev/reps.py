"""Representations of Malcev superalgebras, bimodules of alternative
superalgebras, dual/coadjoint representations, and the two semidirect
product constructions.

Actions are stored per algebra basis element: ``action[i]`` is the graded
linear map for ``b_i`` and must have parity ``|b_i|`` (that is what it
means for the action map into gl(V) to be even).  Linearity in the algebra
argument holds by construction and is never checked.

The checkers, the semidirect products and the O-operator engine in
``operators`` read an action through its sparse columns (``_kernel.Columns``):
the image of each module basis vector under each ``action[i]``.  An
identity between operators on V is decided column by column, on one
module basis vector at a time, and a failing tuple is witnessed by its
first nonzero residual column, in the one such walk for every identity
(``_witness_first_column``).  A checker builds each tuple's terms once; the
walk sums each residual column as one integer, the columns it adds packed
into one ``int`` each (``_kernel.pack``), so a term is one multiply-add of a
packed column and a column is zero exactly when its integer is; only a
kept witness's leftover is unpacked.  Signs that depend on the module
vector come from copies of L and R with odd columns negated.

Both checkers visit only the tuples at which some term can be nonzero, in
the order of the full grid, and count the whole grid.  At (x, y, z) a term
of the representation identity has a zero factor unless the row xy is
nonzero, or rho(x), rho(y) and rho(z) all are, or rho(x) and the row yz
are, or rho(y) and the row zx are; a bimodule pair (x, y) needs xy or yx
nonzero, or l(x) and one of l(y), r(y) nonzero, or r(x) and r(y).  A
visited triple builds only its terms whose factors are all nonzero, (xy)z
straight off the rows.

The representation checker reads the composites rho(a)rho(b) from per-call
tables, one block per first index i of the walk: the columns of
rho(b_i)rho(b_b) and of rho(b_a)rho(b_i) for every a and b, and those of
rho(b_k b_i).  Each is built when a visited triple first reads it, a pair
table whole and packed, and rho(b_k b_i) one sparse column at a time, and a
block, at most O(n dim(V)^2) entries, is dropped before the next.
Each residual column is then one integer sum over those columns, with no
product of two operators rebuilt per triple.

The constructions work on sparse columns too, each job in one place:
multiplication columns off the rows (``_multiplication_columns``), the
factor -(-1)^{|x||v|} of moving x in A past v in V (``_move_signs``), read
by the signed columns (``_signed``) and by the one signed transpose of an
action (``_dual_columns``: rho*, and ad* as the dual of left
multiplication), maps from columns (``_maps``) and the semidirect product
(``_semidirect``).

Actions and leftovers are public ``Fraction`` values; a checker computes
in integers.  It scales the algebra's rows and the action columns it reads
by their common denominator D (``_kernel``), so every term of a residual
is D^p times the rational one, with p the number of scaled factors per
term (3 for the representation identity, 2 for the bimodule identities and
for an equivalence).  Each checker's docstring states the bound on a
residual coefficient that its packed slots are derived from
(``_kernel.slot_width``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._kernel import (
    EMPTY,
    Columns,
    Rows,
    Vector,
    act,
    add_scaled,
    denominator,
    pack,
    scaled,
    scaled_columns,
    scaled_rows,
    slot_width,
    unpack,
    unscaled,
)
from .graded import (
    DimensionMismatch,
    GradedLinearMap,
    ParityViolation,
    SuperSpace,
    _shape,
    direct_sum,
    koszul_sign,
    vector_from_sparse,
)
from .algebras import (
    DEFAULT_WITNESS_LIMIT,
    Superalgebra,
    ViolationReport,
    _WitnessCollector,
    commutator_superalgebra,
)


def _validate_action(algebra: Superalgebra, space: SuperSpace,
                     maps: tuple[GradedLinearMap, ...], what: str):
    if len(maps) != algebra.space.dim:
        raise DimensionMismatch(f"{what}: one map per algebra basis element required")
    for i, m in enumerate(maps):
        if _shape(m.domain) != _shape(space) or _shape(m.codomain) != _shape(space):
            raise DimensionMismatch(f"{what}: map {i} does not act on the module space")
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

def _columns(maps: tuple[GradedLinearMap, ...]) -> Columns:
    return tuple(m.columns for m in maps)


def _packed_columns(columns: Columns, width: int) -> tuple[tuple[int, ...], ...]:
    """Each scaled column of an action packed into one ``int``."""
    return tuple(tuple(pack(column, width) for column in cols) for cols in columns)


def _pair_columns(f: tuple[int, ...], g: tuple[Vector, ...]) -> tuple[int, ...]:
    """The packed columns of the composite f g, from f's packed columns and
    g's sparse ones."""
    return tuple(sum(a * f[r] for r, a in column.items()) for column in g)


class _Lazy(dict):
    """A table whose entry at a key is built by ``make(key)`` when first read."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _block(rows: Rows, rho: Columns, packed_rho: tuple[tuple[int, ...], ...],
           i: int) -> tuple[_Lazy, _Lazy, _Lazy]:
    """The tables of the block of x = b_i, each built when first read:
    ``left[b]`` = rho(x)rho(b_b) and ``right[a]`` = rho(b_a)rho(x) whole and
    packed, since rho(x)rho(y)rho(z) b_c and rho(z)rho(x)rho(y) b_c read
    them at every vector that rho(z) b_c or rho(y) b_c holds, and
    ``times_x[k]`` = rho(b_k x) a sparse column at a time, since a triple
    reads it at the walk's column only, as the vector a packed rho(y) is
    applied to."""
    x, packed_x = rho[i], packed_rho[i]
    left = _Lazy(lambda b: _pair_columns(packed_x, rho[b]))
    right = _Lazy(lambda a: _pair_columns(packed_rho[a], x))
    times_x = _Lazy(lambda k: _Lazy(lambda c: act(rho, rows.get((k, i), EMPTY), c) or EMPTY))
    return left, right, times_x


def _witness_first_column(col: _WitnessCollector, indices: tuple[int, ...],
                          space: SuperSpace, scale: int, width: int, columns, applied):
    """Witness ``indices + (c,)`` for the first module basis vector b_c whose
    residual column is nonzero, if there is one; the one loop over module
    columns.  Every ``table`` holds packed columns with slots of ``width``
    bits.  Column c adds factor * ``table[c]`` for each (factor, table) of
    ``columns`` and factor * a * ``table[b]`` for each (factor, vectors,
    table) of ``applied`` and each entry (b, a) of the sparse ``vectors[c]``,
    so the residual column is one integer sum, zero exactly when the
    integer is.  The residual is ``scale`` times the rational one."""
    for c in range(space.dim):
        res = 0
        for factor, table in columns:
            res += factor * table[c]
        for factor, vectors, table in applied:
            for b, a in vectors[c].items():
                res += factor * a * table[b]
        if res:
            col.add(indices + (c,), lambda: vector_from_sparse(
                space, unscaled(unpack(res, width), scale)))
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

    The packed slots hold every residual coefficient: with N the largest l1
    norm of a scaled row of A or column of rho, each of the five terms
    applied to b_c has l1 norm at most N^3 ((xy)z has at most N^2 and rho
    of it multiplies by at most N), so a coefficient is at most 5 N^3.
    """
    col = _WitnessCollector("representation", witness_limit)
    A = R.algebra
    n = A.space.dim
    par = A.space.parities()
    rows, rho = A.rows(), _columns(R.action)
    D = denominator(rows.values(), *rho)
    rows, rho = scaled_rows(rows, D), scaled_columns(rho, D)
    width = slot_width((rows.values(), *rho), 5, 3)
    packed_rho = _packed_columns(rho, width)
    col.tally(n ** 3, 0)
    scale, acting = D ** 3, [any(cols) for cols in rho]
    for i in range(n):
        x_acts = acting[i]
        left, right, times_x = _block(rows, rho, packed_rho, i)
        for j in range(n):
            xy, y_acts = rows.get((i, j)), acting[j]
            if not (xy or x_acts or y_acts):
                continue  # every term at (x, y, z) has a zero factor
            for k in range(n):
                yz, zx = x_acts and rows.get((j, k)), y_acts and rows.get((k, i))
                every = x_acts and y_acts and acting[k]
                if not (xy or yz or zx or every):
                    continue
                # the terms whose factors are all nonzero: rho((xy)z) b_c and
                # s rho(yz)rho(x) b_c read column c of a table; -rho(x)rho(y) rho(z)b_c,
                # s2 rho(z)rho(x) rho(y)b_c and -s rho(y) rho(zx)b_c apply one to a column
                columns, applied = [], []
                if xy:
                    xyz: dict = {}
                    for m, a in xy.items():
                        for l, b in rows.get((m, k), EMPTY).items():
                            xyz[l] = xyz.get(l, 0) + a * b
                    columns = [(a, packed_rho[l]) for l, a in xyz.items() if a]
                if yz or zx:
                    s = koszul_sign(par[i], par[j] + par[k])
                    if yz:
                        columns += [(s * a, right[l]) for l, a in yz.items()]
                    if zx:
                        applied.append((-s, times_x[k], packed_rho[j]))
                if every:
                    applied += ((-1, rho[k], left[j]),
                                (koszul_sign(par[k], par[i] + par[j]), rho[j], right[k]))
                _witness_first_column(col, (i, j, k), R.space, scale, width, columns, applied)
    return col.report()


def check_alternative_bimodule(B: Bimodule,
                               witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """The four operator identities of an alternative bimodule over all
    homogeneous basis pairs of A, decided column by column.

    With r(y)v = v y they are the super-alternativity of A + V: left
    alternativity at (x, y, v) and (x, v, y), right alternativity at
    (v, x, y) and (x, v, y).  So identities 2 and 3 carry the sign of the
    module vector v the residual column is taken on.

    Witness index tuples are (identity#, i, j, col) with identity# in 0..3
    and ``col`` the first module basis vector the residual does not
    annihilate; ``checked_tuples`` counts basis pairs.

    The packed slots hold every residual coefficient: with N the largest l1
    norm of a scaled row of A or column of l or r, each of the four terms of
    an identity applied to b_c has l1 norm at most N^2, so a coefficient is
    at most 4 N^2.
    """
    col = _WitnessCollector("bimodule", witness_limit)
    A = B.algebra
    n = A.space.dim
    par = A.space.parities()
    rows, L, R = A.rows(), _columns(B.left), _columns(B.right)
    D = denominator(rows.values(), *L, *R)
    rows, L, R = scaled_rows(rows, D), scaled_columns(L, D), scaled_columns(R, D)
    vpar = B.space.parities()
    width = slot_width((rows.values(), *L, *R), 4, 2)
    # signed[p] = (L, R) with column b_c times (-1)^{p|b_c|}: for p = 1 odd ones
    # negated; sparse, for the vectors of a term, and l's packed, for its tables
    signed = ((L, R), tuple(tuple(tuple({r: -v for r, v in column.items()} if q else column
                                        for q, column in zip(vpar, cols)) for cols in M)
                            for M in (L, R)))
    packed_l = tuple(_packed_columns(Ls, width) for Ls, _ in signed)
    PL, PR = packed_l[0], _packed_columns(R, width)
    col.tally(n ** 2, 0)
    scale = D ** 2
    lacts, racts = ([any(cols) for cols in M] for M in (L, R))
    for i, j in itertools.product(range(n), repeat=2):
        xy, yx = rows.get((i, j), EMPTY).items(), rows.get((j, i), EMPTY).items()
        # a term with two action factors reads l(x) l(y), r(x) r(y) or l(x) r(y)
        if not (xy or yx or lacts[i] and (lacts[j] or racts[j]) or racts[i] and racts[j]):
            continue  # every term at (x, y) has a zero factor
        s = koszul_sign(par[i], par[j])
        # t = (-1)^{|x||v|} and u = (-1)^{|v||y|} come with the copies Lt, Rt, Lu and PLu
        (Lt, Rt), (Lu, _) = signed[par[i]], signed[par[j]]
        PLu = packed_l[par[j]]
        minus_r_xy = [(-a, PR[k]) for k, a in xy]
        identities = (
            # l(xy) + s l(yx) - l(x)l(y) - s l(y)l(x)
            ([(a, PL[k]) for k, a in xy] + [(s * a, PL[k]) for k, a in yx],
             ((-1, L[j], PL[i]), (-s, L[i], PL[j]))),
            # r(y)r(x) + s r(x)r(y) - r(xy) - s r(yx)
            (minus_r_xy + [(-s * a, PR[k]) for k, a in yx],
             ((1, R[i], PR[j]), (s, R[j], PR[i]))),
            # r(y)r(x) + t r(y)l(x) - t l(x)r(y) - r(xy)
            (minus_r_xy,
             ((1, R[i], PR[j]), (1, Lt[i], PR[j]), (-1, Rt[j], PL[i]))),
            # r(y)l(x) + u l(xy) - u l(x)l(y) - l(x)r(y)
            ([(a, PLu[k]) for k, a in xy],
             ((1, L[i], PR[j]), (-1, Lu[j], PL[i]), (-1, R[j], PL[i]))),
        )
        for q, (columns, applied) in enumerate(identities):
            _witness_first_column(col, (q, i, j), B.space, scale, width, columns, applied)
    return col.report()


# -- constructions -------------------------------------------------------


def _multiplication_columns(A: Superalgebra, right: bool = False) -> Columns:
    """Column b of the map of b_a is b_a b_b, or with ``right`` b_b b_a: left
    or right multiplication, read off the rows."""
    n, rows = A.space.dim, A.rows()
    return tuple(tuple(rows.get((b, a) if right else (a, b), EMPTY) for b in range(n))
                 for a in range(n))


def _move_signs(module: SuperSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``signs[p][v]`` = -(-1)^{p|b_v|}: the one place the factor of moving an
    algebra element of parity p past a module basis vector b_v is written,
    for ``_signed``, ``_dual_columns`` and the -sigma of the MYBE double."""
    return tuple(tuple(-koszul_sign(p, q) for q in module.parities()) for p in (0, 1))


def _signed(algebra: SuperSpace, module: SuperSpace, columns: Columns) -> Columns:
    """The columns of v -> -(-1)^{|x||v|} action(x) v, for r(x)v = [v, x] on
    A + V and for rep_from_bimodule."""
    signs = _move_signs(module)
    return tuple(tuple(column if s > 0 else {k: -c for k, c in column.items()}
                       for s, column in zip(signs[p], cols))
                 for p, cols in zip(algebra.parities(), columns))


def _maps(algebra: SuperSpace, module: SuperSpace,
          columns: Columns) -> tuple[GradedLinearMap, ...]:
    """One graded linear map on the module per algebra basis element, built
    from its sparse columns."""
    return tuple(GradedLinearMap._from_columns(module, module, cols, p)
                 for p, cols in zip(algebra.parities(), columns))


def _semidirect(A: Superalgebra, V: SuperSpace, left: Columns, right: Columns) -> Superalgebra:
    """Product on A + V:  (x+a)(y+b) = xy + left(x)b + right(y)a."""
    total, emb_a, emb_v = direct_sum(A.space, V)
    rows = {(emb_a[i], emb_a[j]): {emb_a[k]: c for k, c in row.items()}
            for (i, j), row in A.rows().items()}
    for i, (lcols, rcols) in enumerate(zip(left, right)):
        for j, (lcol, rcol) in enumerate(zip(lcols, rcols)):
            if lcol:
                rows[emb_a[i], emb_v[j]] = {emb_v[k]: c for k, c in lcol.items()}
            if rcol:
                rows[emb_v[j], emb_a[i]] = {emb_v[k]: c for k, c in rcol.items()}
    return Superalgebra._from_rows(total, {"mul": rows})


def semidirect_malcev(R: Representation) -> Superalgebra:
    """Bracket on A + V:  [x+a, y+b] = [x,y] + rho(x)b - (-1)^{|x||y|} rho(y)a."""
    rho = _columns(R.action)
    return _semidirect(R.algebra, R.space, rho, _signed(R.algebra.space, R.space, rho))


def semidirect_alternative(B: Bimodule) -> Superalgebra:
    """Product on A + V:  (x+a)(y+b) = xy + l(x)b + r(y)a."""
    return _semidirect(B.algebra, B.space, _columns(B.left), _columns(B.right))


def _dual_columns(columns: Columns, algebra: SuperSpace, module: SuperSpace) -> Columns:
    """The columns of rho* on V* from those of rho, the one signed transpose
    of an action (ad* is that of left multiplication): <rho*(x)a*, b> =
    -(-1)^{|x||a*|} <a*, rho(x)b>, so column jj of rho*(b_i) holds
    -(-1)^{|i||jj|} <b_jj*, rho(b_i) b_ii> at row ii, signed as it is moved."""
    signs, dual = _move_signs(module), []
    for p, cols in zip(algebra.parities(), columns):
        sign, out = signs[p], {}
        for ii, column in enumerate(cols):
            for jj, c in column.items():
                out.setdefault(jj, {})[ii] = c if sign[jj] > 0 else -c
        dual.append(tuple(out.get(jj, EMPTY) for jj in range(module.dim)))
    return tuple(dual)


def dual_representation(R: Representation) -> Representation:
    """rho* on V* determined by <rho*(x)a*, b> = -(-1)^{|x||a*|} <a*, rho(x)b>."""
    A, dual_space = R.algebra.space, R.space.dual()
    return Representation(R.algebra, dual_space, _maps(
        A, dual_space, _dual_columns(_columns(R.action), A, R.space)))


def rep_from_bimodule(B: Bimodule) -> Representation:
    """rho(x)v = l(x)v - (-1)^{|x||v|} r(x)v over the commutator algebra."""
    columns = [[dict(column) for column in cols] for cols in _columns(B.left)]
    for cols, right in zip(columns, _signed(B.algebra.space, B.space, _columns(B.right))):
        for column, r in zip(cols, right):
            add_scaled(column, r, 1)
    return Representation(commutator_superalgebra(B.algebra), B.space,
                          _maps(B.algebra.space, B.space, columns))


def adjoint_representation(A: Superalgebra) -> Representation:
    """ad(x)y = x*y; a Malcev representation when A is a Malcev superalgebra."""
    return Representation(A, A.space, _maps(A.space, A.space, _multiplication_columns(A)))


def coadjoint_representation(A: Superalgebra) -> Representation:
    """ad* = dual of the adjoint representation."""
    dual = A.space.dual()
    return Representation(A, dual, _maps(A.space, dual, _dual_columns(
        _multiplication_columns(A), A.space, A.space)))


def left_multiplication_representation(P: Superalgebra) -> Representation:
    """L_x y = x.y of a pre-Malcev algebra, as a representation of its
    sub-adjacent (commutator) Malcev superalgebra.

    This is the representation for which the identity map is an invertible
    O-operator recovering the compatible pre-Malcev structure.
    """
    return Representation(commutator_superalgebra(P), P.space,
                          _maps(P.space, P.space, _multiplication_columns(P)))


def regular_bimodule(A: Superalgebra) -> Bimodule:
    """l = left multiplication, r = right multiplication on A itself."""
    return Bimodule(A, A.space, _maps(A.space, A.space, _multiplication_columns(A)),
                    _maps(A.space, A.space, _multiplication_columns(A, right=True)))


def are_equivalent(R: Representation, Rp: Representation,
                   phi: GradedLinearMap,
                   witness_limit: int = DEFAULT_WITNESS_LIMIT) -> ViolationReport:
    """Checks that phi intertwines the two actions: phi rho(x) = rho'(x) phi.

    phi must be an even bijection V -> V'; a failing algebra index i is
    witnessed as (i, col) with the residual column.  Raises ``DimensionMismatch``
    if phi is not (even, odd)-shaped V -> V' or the algebras differ in size.

    The packed slots hold every residual coefficient: with N the largest l1
    norm of a scaled column of phi, rho or rho', both terms applied to b_c
    have l1 norm at most N^2, so a coefficient is at most 2 N^2.
    """
    got = _shape(phi.domain), _shape(phi.codomain), R.algebra.space.dim
    want = _shape(R.space), _shape(Rp.space), Rp.algebra.space.dim
    if got != want:
        raise DimensionMismatch(f"equivalence: phi is {got[0]} -> {got[1]} (even, odd), expected "
                                f"{want[0]} -> {want[1]}; algebra dimensions {got[2]}, {want[2]}")
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
    width = slot_width((phi_cols, *rho, *rho_p), 2, 2)
    packed_phi = tuple(pack(v, width) for v in phi_cols)
    packed_rho_p = _packed_columns(rho_p, width)
    col.tally(R.algebra.space.dim, 0)
    scale = D ** 2
    for i in range(R.algebra.space.dim):
        _witness_first_column(col, (i,), Rp.space, scale, width, (),
                              ((1, rho[i], packed_phi), (-1, phi_cols, packed_rho_p[i])))
    return col.report()


def double_dual_identification(space: SuperSpace) -> GradedLinearMap:
    """The canonical even isomorphism V -> V** induced by
    <a*, b> = (-1)^{|a*||b|} <b, a*>: identity on the even part, minus
    identity on the odd part."""
    return GradedLinearMap._from_columns(space, space.dual().dual(), [
        {i: Fraction(koszul_sign(p, p))} for i, p in enumerate(space.parities())], 0)
