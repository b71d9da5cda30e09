"""Z2-graded vector spaces, linear maps, tensors, and Koszul-sign bookkeeping.

Conventions used throughout the package:

* a super vector space has ``even_dim`` even basis vectors followed by
  ``odd_dim`` odd ones; index parity is decided by position;
* all scalars are exact rationals (``fractions.Fraction``); every identity
  check in this package is an exact polynomial identity, so equality means
  equality, never closeness;
* ``koszul_sign(p, q)`` is the factor (-1)^{p*q} picked up when homogeneous
  symbols of parities p and q swap positions;
* the graded flip on 2-tensors is ``sigma(x (x) y) = (-1)^{|x||y|} y (x) x``;
  a 2-tensor is skew-supersymmetric when ``r = -sigma(r)``;
* the dual space carries the dual gradation (a dual basis vector has the
  parity of its primal partner) and ``pair(b_i*, b_j) = delta_ij``;
* a vector stores only its nonzero coordinates, a linear map only its
  sparse columns, a 2-tensor or a form only its nonzero entries;
  ``coords``, ``matrix`` and ``coeffs`` rebuild the dense tuple or matrix on
  every read, for serialization and ``repr`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partialmethod
from typing import Iterable, Mapping, Sequence

from ._kernel import EMPTY, Frozen, add_scaled, apply
from ._linalg import ONE, ZERO, Matrix, as_scalar, freeze
from . import _linalg


def koszul_sign(p: int, q: int) -> int:
    """(-1)^{p*q} for parities p, q (only their residues mod 2 matter)."""
    return -1 if (p % 2) and (q % 2) else 1


class DimensionMismatch(ValueError):
    """Operands live in spaces of incompatible dimensions."""


class ParityViolation(ValueError):
    """An entry sits at an index whose parity contradicts the declared one."""


def _shape(space: SuperSpace) -> tuple[int, int]:
    return space.even_dim, space.odd_dim


def _default_labels(even_dim: int, odd_dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(even_dim)) + tuple(
        f"f{j + 1}" for j in range(odd_dim)
    )


@dataclass(frozen=True)
class SuperSpace:
    """A finite-dimensional Z2-graded vector space, even basis first."""

    even_dim: int
    odd_dim: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise ValueError("negative dimension")
        object.__setattr__(self, "labels", tuple(self.labels)
                           or _default_labels(self.even_dim, self.odd_dim))
        if len(self.labels) != self.dim:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for dimension {self.dim}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim

    def parity(self, index: int) -> int:
        if not 0 <= index < self.dim:
            raise IndexError(index)
        return 0 if index < self.even_dim else 1

    def parities(self) -> tuple[int, ...]:
        return (0,) * self.even_dim + (1,) * self.odd_dim

    def dual(self) -> "SuperSpace":
        return SuperSpace(
            self.even_dim, self.odd_dim, tuple(lbl + "*" for lbl in self.labels)
        )

    def zero(self) -> "GradedVector":
        return vector_from_sparse(self, EMPTY)

    def basis_vector(self, index: int) -> "GradedVector":
        if not 0 <= index < self.dim:
            raise IndexError(index)
        return vector_from_sparse(self, {index: ONE})

    def basis(self) -> tuple["GradedVector", ...]:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    def vector(self, coords: Iterable) -> "GradedVector":
        return GradedVector(self, coords)


def direct_sum(a: SuperSpace, b: SuperSpace) -> tuple[SuperSpace, tuple[int, ...], tuple[int, ...]]:
    """Direct sum renormalized to the even-first convention.

    Returns the sum space together with the index embeddings of a and b
    (position of each original basis vector inside the sum).
    """
    ordered = (
        list(a.labels[: a.even_dim])
        + list(b.labels[: b.even_dim])
        + list(a.labels[a.even_dim :])
        + list(b.labels[b.even_dim :])
    )
    seen: set[str] = set()
    labels = []
    for lbl in ordered:
        while lbl in seen:
            lbl = lbl + "'"
        seen.add(lbl)
        labels.append(lbl)
    total = SuperSpace(
        a.even_dim + b.even_dim, a.odd_dim + b.odd_dim, tuple(labels)
    )
    embed_a = tuple(
        i if i < a.even_dim else i + b.even_dim for i in range(a.dim)
    )
    embed_b = tuple(
        a.even_dim + j if j < b.even_dim else a.dim + j for j in range(b.dim)
    )
    return total, embed_a, embed_b


@dataclass(frozen=True, init=False)
class GradedVector:
    """A vector stored as its nonzero coordinates keyed by basis index, in
    index order; ``coords`` rebuilds the dense tuple on every read.  The
    package builds vectors from entries with ``vector_from_sparse``."""

    space: SuperSpace
    _entries: Mapping[int, Fraction]

    def __new__(cls, space: SuperSpace, coords: Iterable):
        coords = tuple(map(as_scalar, coords))
        if len(coords) != space.dim:
            raise DimensionMismatch(f"{len(coords)} coordinates in a {space.dim}-dim space")
        return vector_from_sparse(space, {i: c for i, c in enumerate(coords) if c})

    def __reduce__(self):
        return vector_from_sparse, (self.space, self._entries)

    def __repr__(self):
        return f"GradedVector(space={self.space!r}, coords={self.coords!r})"

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(self._entries.get(i, ZERO) for i in range(self.space.dim))

    def is_zero(self) -> bool:
        return not self._entries

    def parity(self) -> int | None:
        """Parity of a homogeneous vector; 0 for the zero vector, None if mixed."""
        seen = {self.space.parity(i) for i in self._entries}
        return None if len(seen) > 1 else max(seen, default=0)

    def _plus(self, other: "GradedVector", factor: int) -> "GradedVector":
        if _shape(self.space) != _shape(other.space):
            raise DimensionMismatch("vectors live in different spaces")
        entries = dict(self._entries)
        add_scaled(entries, other._entries, factor)
        return vector_from_sparse(self.space, entries)

    __add__ = partialmethod(_plus, factor=1)
    __sub__ = partialmethod(_plus, factor=-1)

    def __neg__(self) -> "GradedVector":
        return vector_from_sparse(self.space, {i: -c for i, c in self._entries.items()})

    def __rmul__(self, scalar) -> "GradedVector":
        c = as_scalar(scalar)
        return vector_from_sparse(self.space, {i: c * x for i, x in self._entries.items() if c})

    def sparse(self) -> dict[int, Fraction]:
        return dict(self._entries)


def vector_from_sparse(space: SuperSpace, entries: Mapping[int, Fraction]) -> GradedVector:
    """The vector with these nonzero ``Fraction`` coordinates."""
    v = object.__new__(GradedVector)
    v.__dict__.update(space=space, _entries=Frozen(sorted(entries.items())))
    return v


def _nonzero(matrix: Matrix) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of a dense matrix, keyed (row, column)."""
    return {(i, j): x for i, row in enumerate(matrix) for j, x in enumerate(row) if x}


def _sparse_columns(entries: Mapping[tuple[int, int], Fraction], ncols: int) -> list[dict]:
    """The sparse columns of the matrix with these entries."""
    columns: list[dict] = [{} for _ in range(ncols)]
    for (i, j), x in entries.items():
        columns[j][i] = x
    return columns


def _dense(entries: Iterable[tuple[tuple[int, int], Fraction]], nrows: int, ncols: int) -> Matrix:
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for (i, j), c in entries:
        rows[i][j] = c
    return tuple(map(tuple, rows))


def _check_parity(keys: Iterable[tuple[int, int]], rows_par: tuple[int, ...],
                  cols_par: tuple[int, ...], parity: int, value, what: str) -> None:
    """Raise ``ParityViolation`` naming the first key, in row-major order,
    whose row and column parities do not add up to ``parity``."""
    bad = [key for key in keys if (rows_par[key[0]] + cols_par[key[1]] + parity) % 2]
    if bad:
        i, j = min(bad)
        raise ParityViolation(f"{what} ({i}, {j}) = {value(i, j)} violates parity {parity}")


@dataclass(frozen=True, init=False)
class GradedLinearMap:
    """A parity-homogeneous linear map.  The one stored form is ``columns``,
    the image of each domain basis vector as a read-only sparse vector; the
    rows of ``matrix``, rebuilt on every read, index the codomain basis.
    The package builds maps from columns with ``_from_columns``, which
    checks parity as the public constructor does."""

    domain: SuperSpace
    codomain: SuperSpace
    parity: int
    columns: tuple[Mapping[int, Fraction], ...]

    def __new__(cls, domain: SuperSpace, codomain: SuperSpace, matrix: Matrix, parity: int = 0):
        matrix = freeze(matrix)
        if len(matrix) != codomain.dim or any(len(row) != domain.dim for row in matrix):
            raise DimensionMismatch("matrix shape does not match domain/codomain")
        return cls._from_columns(domain, codomain, _sparse_columns(_nonzero(matrix), domain.dim),
                                 parity)

    @classmethod
    def _from_columns(cls, domain: SuperSpace, codomain: SuperSpace,
                      columns: Sequence[Mapping[int, Fraction]], parity: int = 0):
        """The map whose column j is ``columns[j]``, a sparse vector of
        nonzero ``Fraction``s."""
        _check_parity(((i, j) for j, column in enumerate(columns) for i in column),
                      codomain.parities(), domain.parities(), parity,
                      lambda i, j: columns[j][i], "entry")
        m = object.__new__(cls)
        m.__dict__.update(domain=domain, codomain=codomain, parity=parity, columns=tuple(
            Frozen(sorted(c.items())) if c else EMPTY for c in columns))
        return m

    def __reduce__(self):
        # the public constructor takes a dense matrix
        return self._from_columns, (self.domain, self.codomain, self.columns, self.parity)

    def __repr__(self):
        return (f"GradedLinearMap(domain={self.domain!r}, codomain={self.codomain!r}, "
                f"matrix={self.matrix!r}, parity={self.parity!r})")

    @property
    def matrix(self) -> Matrix:
        return _dense((((i, j), c) for j, column in enumerate(self.columns)
                       for i, c in column.items()), self.codomain.dim, self.domain.dim)

    @staticmethod
    def identity(space: SuperSpace) -> "GradedLinearMap":
        return GradedLinearMap._from_columns(space, space, [{i: ONE} for i in range(space.dim)])

    @staticmethod
    def zero(domain: SuperSpace, codomain: SuperSpace, parity: int = 0) -> "GradedLinearMap":
        return GradedLinearMap._from_columns(domain, codomain, [EMPTY] * domain.dim, parity)

    def __call__(self, v: GradedVector) -> GradedVector:
        if _shape(v.space) != _shape(self.domain):
            raise DimensionMismatch("vector not in the domain")
        return vector_from_sparse(self.codomain, apply(self.columns, v._entries))

    def apply_sparse(self, entries: Mapping[int, Fraction]) -> dict[int, Fraction]:
        return apply(self.columns, entries)

    def compose(self, inner: "GradedLinearMap") -> "GradedLinearMap":
        """self after inner."""
        if _shape(inner.codomain) != _shape(self.domain):
            raise DimensionMismatch("composition shape mismatch")
        return self._from_columns(inner.domain, self.codomain,
                                  [apply(self.columns, c) for c in inner.columns],
                                  (self.parity + inner.parity) % 2)

    def is_invertible(self) -> bool:
        # square, of rank n: the columns are the rows of the transpose
        n = self.domain.dim
        return n == self.codomain.dim and len(_linalg.rref(self.columns, n)[1]) == n

    def inverse(self) -> "GradedLinearMap":
        """Raises ValueError unless the map is square and invertible."""
        return self._from_columns(self.codomain, self.domain,
                                  _linalg.invert(self.columns, self.codomain.dim), self.parity)

    def _plus(self, other: "GradedLinearMap", factor: int, verb: str) -> "GradedLinearMap":
        if other.parity != self.parity:
            raise ParityViolation(f"cannot {verb} maps of different parities")
        if (_shape(other.domain), _shape(other.codomain)) != (
                _shape(self.domain), _shape(self.codomain)):
            raise DimensionMismatch(f"cannot {verb} maps of different (even, odd) dimensions")
        columns = [dict(c) for c in self.columns]
        for column, c in zip(columns, other.columns):
            add_scaled(column, c, factor)
        return self._from_columns(self.domain, self.codomain, columns, self.parity)

    __add__ = partialmethod(_plus, factor=1, verb="add")
    __sub__ = partialmethod(_plus, factor=-1, verb="subtract")

    def __rmul__(self, scalar) -> "GradedLinearMap":
        c = as_scalar(scalar)
        return self._from_columns(self.domain, self.codomain, [
            {i: c * x for i, x in column.items()} if c else EMPTY
            for column in self.columns], self.parity)


def _flips_to(entries: Mapping[tuple[int, int], Fraction], par: tuple[int, ...],
              sign: int) -> bool:
    """c_ji = sign (-1)^{|i||j|} c_ij for all i, j, read off the nonzero
    entries c_ij: sigma(t) = sign * t for a 2-tensor, (skew-)supersymmetry
    for a bilinear form.  An entry whose mirror is zero fails at the entry."""
    return all(entries.get((j, i), 0) == sign * koszul_sign(par[i], par[j]) * c
               for (i, j), c in entries.items())


@dataclass(frozen=True, init=False)
class Tensor2:
    """An element of A (x) A.  The one stored form is its nonzero
    coefficients keyed by basis index pairs, in row-major order; ``coeffs``
    rebuilds the dense matrix on every read.  The package builds tensors from
    entries with ``_from_entries``; the error messages name the matrix and an
    entry by ``_nouns``.  A bilinear form is the subclass ``BilinearForm``."""

    space: SuperSpace
    parity: int
    _entries: Mapping[tuple[int, int], Fraction]
    _nouns = ("coefficient matrix", "tensor entry")

    def __new__(cls, space: SuperSpace, coeffs: Matrix, parity: int = 0):
        coeffs, n = freeze(coeffs), space.dim
        if len(coeffs) != n or any(len(row) != n for row in coeffs):
            raise DimensionMismatch(f"{cls._nouns[0]} shape mismatch")
        return cls._from_entries(space, _nonzero(coeffs), parity)

    @classmethod
    def _from_entries(cls, space: SuperSpace, entries: Mapping[tuple[int, int], Fraction],
                      parity: int = 0):
        """The tensor with these nonzero ``Fraction`` coefficients."""
        par = space.parities()
        _check_parity(entries, par, par, parity, lambda i, j: entries[i, j], cls._nouns[1])
        t = object.__new__(cls)
        t.__dict__.update(space=space, parity=parity,
                          _entries=Frozen(sorted(entries.items())))
        return t

    def __reduce__(self):
        return self._from_entries, (self.space, self._entries, self.parity)

    def __repr__(self):
        return f"Tensor2(space={self.space!r}, coeffs={self.coeffs!r}, parity={self.parity!r})"

    @property
    def coeffs(self) -> Matrix:
        return _dense(self._entries.items(), self.space.dim, self.space.dim)

    @classmethod
    def zero(cls, space: SuperSpace, parity: int = 0) -> "Tensor2":
        return cls._from_entries(space, {}, parity)

    def is_zero(self) -> bool:
        return not self._entries

    def is_skew_supersymmetric(self) -> bool:
        """sigma(self) = -self."""
        return _flips_to(self._entries, self.space.parities(), -1)

    def is_supersymmetric(self) -> bool:
        """sigma(self) = self."""
        return _flips_to(self._entries, self.space.parities(), 1)

    def _plus(self, other: "Tensor2", factor: int, verb: str) -> "Tensor2":
        if other.parity != self.parity:
            raise ParityViolation(f"cannot {verb} tensors of different parities")
        if _shape(other.space) != _shape(self.space):
            raise DimensionMismatch(f"cannot {verb} tensors of different (even, odd) dimensions")
        entries = dict(self._entries)
        add_scaled(entries, other._entries, factor)
        return self._from_entries(self.space, entries, self.parity)

    __add__ = partialmethod(_plus, factor=1, verb="add")
    __sub__ = partialmethod(_plus, factor=-1, verb="subtract")

    def __neg__(self) -> "Tensor2":
        return self._from_entries(
            self.space, {key: -c for key, c in self._entries.items()}, self.parity)

    def sparse(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._entries)


def sigma(t: Tensor2) -> Tensor2:
    """The graded flip: sigma(b_i (x) b_j) = (-1)^{|b_i||b_j|} b_j (x) b_i."""
    par = t.space.parities()
    return Tensor2._from_entries(t.space, {(j, i): koszul_sign(par[i], par[j]) * c
                                          for (i, j), c in t._entries.items()}, t.parity)


@dataclass(frozen=True)
class Tensor3:
    """A sparse element of A (x) A (x) A: ``coeffs``, read-only, keyed by basis
    index triples.  A key that is not a triple raises ``DimensionMismatch``,
    an index out of range ``IndexError``."""

    space: SuperSpace
    coeffs: Mapping[tuple[int, int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        n = self.space.dim
        for key in self.coeffs:
            if len(key) != 3:
                raise DimensionMismatch(f"tensor key {key} is not a triple")
            if not all(0 <= x < n for x in key):
                raise IndexError(next(x for x in key if not 0 <= x < n))
        object.__setattr__(self, "coeffs", Frozen(
            (key, as_scalar(c)) for key, c in self.coeffs.items() if c != 0))

    def is_zero(self) -> bool:
        return not self.coeffs


def pair(x_star: GradedVector, y: GradedVector) -> Fraction:
    """Canonical pairing <x*, y>; on dual-basis pairs <b_i*, b_j> = delta_ij."""
    if _shape(x_star.space) != _shape(y.space):
        raise DimensionMismatch("pairing of incompatible spaces")
    entries = y._entries
    return sum((c * entries[i] for i, c in x_star._entries.items() if i in entries), start=ZERO)


def pair_tensor(s: Tensor2, t: Tensor2) -> Fraction:
    """Pairing of a dual 2-tensor against a 2-tensor.

    Extends the canonical pairing by
    <a1* (x) a2*, b1 (x) b2> = (-1)^{|a2*||b1|} <a1*, b1> <a2*, b2>.
    """
    if _shape(s.space) != _shape(t.space):
        raise DimensionMismatch("pairing of incompatible spaces")
    par, entries = t.space.parities(), t._entries
    return sum((koszul_sign(par[j], par[i]) * c * entries[i, j]
                for (i, j), c in s._entries.items() if (i, j) in entries), start=ZERO)
