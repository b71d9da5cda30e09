"""The exact arithmetic under every checker: sparse vectors of integers
scaled by one common denominator.

A sparse vector maps basis indices to nonzero coefficients; a stored one
is a read-only, hashable and picklable ``Frozen`` dict.  The helpers
``add_scaled``, ``mul``, ``act`` and ``apply`` are the package's sparse
product helpers, beside the joins of the algebra checkers in ``algebras``;
they work unchanged on ``int`` and on ``Fraction`` coefficients, and the
public constructions call them on the stored ``Fraction`` values.

A checker instead takes, once per call, the lcm ``D`` of the denominators
of every product row, action column and operator column it reads, and
works on ``int`` copies of them scaled by ``D`` (fraction-free arithmetic:
Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 9).
Every term of an identity's residual is a product of the same number ``p``
of scaled factors, so the integer residual is exactly ``D**p`` times the
rational one: it is zero exactly when the rational residual is, and
``unscaled`` gives back the rational leftover of a witness.  Nothing is
cached beyond the call.

A checker packs the scaled vectors it sums into one ``int`` each
(``pack``): coefficient c of b_k becomes c * 2**(w k), in a signed slot of
w bits (Kronecker substitution).  The joins of the algebra checkers pack
each row (``packed``); the module checkers in ``reps`` pack the action
columns a residual column sums, and the columns of an equivalence's
phi.  Packed vectors add and scale as integers, so a term is one
multiply-add, and a packed vector is zero exactly when its integer is.
The slot width w is not a setting: ``slot_width`` derives it from a bound
on every coefficient an identity can reach, so no slot overflows into the
next and ``unpack`` reads each coefficient back exactly.  Only this module
knows the packed format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Number = Union[int, Fraction]
Vector = Mapping[int, Number]
Rows = Mapping[tuple[int, int], Vector]  # (i, j) -> the vector b_i * b_j
Columns = Sequence[Sequence[Vector]]  # [k][j] -> the image of b_j under b_k's map


class Frozen(dict):
    """A dict whose every mutator, a second ``__init__`` too, raises; it hashes by its items."""

    __slots__ = ("_sealed",)

    def __init__(self, *args, **kwargs):
        if hasattr(self, "_sealed"):
            self._read_only()
        super().__init__(*args, **kwargs)
        self._sealed = True

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = update = setdefault = pop = popitem = clear = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


EMPTY: Vector = Frozen()


def add_scaled(dst: dict, src: Mapping, factor: Number) -> None:
    """dst += factor * src, dropping the coefficients that cancel."""
    if not factor:
        return
    for k, c in src.items():
        v = dst.get(k, 0) + factor * c
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


def mul(rows: Rows, xs: Vector, ys: Vector) -> dict:
    """The product of xs and ys under the structure constants ``rows``."""
    out: dict = {}
    for i, a in xs.items():
        for j, b in ys.items():
            row = rows.get((i, j))
            if row:
                add_scaled(out, row, a * b)
    return out


def act(columns: Columns, x: Vector, j: int) -> dict:
    """action(x) b_j for an element x of the acting algebra."""
    out: dict = {}
    for k, c in x.items():
        add_scaled(out, columns[k][j], c)
    return out


def apply(columns: Sequence[Vector], v: Vector) -> dict:
    """The map with these columns applied to v."""
    out: dict = {}
    for j, c in v.items():
        add_scaled(out, columns[j], c)
    return out


# -- one common denominator per call --------------------------------------


def denominator(*groups: Iterable[Mapping]) -> int:
    """The lcm of the denominators of every coefficient of every vector in
    the groups."""
    return math.lcm(*{c.denominator for vectors in groups for vec in vectors
                      for c in vec.values()})


def scaled(vec: Mapping, D: int) -> Mapping:
    """``D * vec`` with ``int`` coefficients; D must be a multiple of every
    denominator of vec."""
    if not vec:
        return EMPTY
    return {k: c.numerator * (D // c.denominator) for k, c in vec.items()}


def scaled_rows(rows: Rows, D: int) -> dict:
    return {key: scaled(row, D) for key, row in rows.items()}


def scaled_columns(columns: Columns, D: int) -> tuple:
    return tuple(tuple(scaled(col, D) for col in cols) for cols in columns)


def unscaled(vec: Mapping, scale: int) -> dict:
    """The rational vector whose ``scale`` multiple is vec."""
    return {k: Fraction(c, scale) for k, c in vec.items()}


# -- one integer per vector ------------------------------------------------


def slot_width(groups: Iterable[Iterable[Vector]], weight: int, depth: int) -> int:
    """The bits of a signed slot that holds every coefficient of a sum of
    products of ``depth`` vectors of the groups each, whose coefficients,
    written out over the products, have absolute values summing to
    ``weight``.  A vector may be a row of structure constants, an action
    column or a column of a map.

    With N the largest l1 norm of a vector, |u v|_1 <= N |u|_1 |v|_1 for a
    row product and |f(v)|_1 <= N |v|_1 for a map f, so every such
    coefficient is at most ``weight * N**depth`` in absolute value, and
    that bound's bits plus a sign bit hold it."""
    norm = 0
    for vectors in groups:
        for vec in vectors:
            size = sum(map(abs, vec.values()))
            if size > norm:
                norm = size
    return (weight * norm ** depth).bit_length() + 1


def pack(vec: Vector, width: int) -> int:
    """The ``int`` vector packed into one integer, its coefficient c of b_k
    as ``c * 2**(width * k)``."""
    v = 0
    for k, c in vec.items():
        v += c << width * k
    return v


def packed(rows: Rows, width: int) -> dict:
    """Each ``int`` row packed into one integer (``pack``)."""
    return {key: pack(row, width) for key, row in rows.items()}


def unpack(value: int, width: int) -> dict:
    """The sparse vector packed into ``value`` with slots of ``width`` bits;
    each step finds the lowest nonzero slot from the lowest set bit, so the
    cost follows the nonzero entries."""
    out = {}
    half, mask = 1 << width - 1, (1 << width) - 1
    # one step per nonzero slot, and no slot above abs(value)'s top bit is nonzero
    for _ in range(abs(value).bit_length() // width + 1):
        if not value:
            break
        k = ((value & -value).bit_length() - 1) // width
        c = value >> width * k & mask
        if c >= half:
            c -= mask + 1
        out[k] = c
        value -= c << width * k
    return out
