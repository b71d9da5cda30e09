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
  parity of its primal partner) and ``pair(b_i*, b_j) = delta_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from ._kernel import EMPTY, apply
from ._linalg import ONE, ZERO, Matrix, as_scalar, freeze, mat_mul, mat_vec, zero_matrix
from . import _linalg


def koszul_sign(p: int, q: int) -> int:
    """(-1)^{p*q} for parities p, q (only their residues mod 2 matter)."""
    return -1 if (p % 2) and (q % 2) else 1


class DimensionMismatch(ValueError):
    """Operands live in spaces of incompatible dimensions."""


class ParityViolation(ValueError):
    """An entry sits at an index whose parity contradicts the declared one."""


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
        if not self.labels:
            object.__setattr__(
                self, "labels", _default_labels(self.even_dim, self.odd_dim)
            )
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
        return GradedVector(self, (ZERO,) * self.dim)

    def basis_vector(self, index: int) -> "GradedVector":
        coords = [ZERO] * self.dim
        coords[index] = ONE
        return GradedVector(self, tuple(coords))

    def basis(self) -> tuple["GradedVector", ...]:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    def vector(self, coords: Iterable) -> "GradedVector":
        return GradedVector(self, tuple(as_scalar(c) for c in coords))


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


@dataclass(frozen=True)
class GradedVector:
    space: SuperSpace
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.space.dim:
            raise DimensionMismatch(
                f"{len(self.coords)} coordinates in a {self.space.dim}-dim space"
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def parity(self) -> int | None:
        """Parity of a homogeneous vector; 0 for the zero vector, None if mixed."""
        seen = {self.space.parity(i) for i, c in enumerate(self.coords) if c != 0}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def __add__(self, other: "GradedVector") -> "GradedVector":
        self._check_space(other)
        return GradedVector(
            self.space, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        self._check_space(other)
        return GradedVector(
            self.space, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GradedVector":
        return GradedVector(self.space, tuple(-a for a in self.coords))

    def __rmul__(self, scalar) -> "GradedVector":
        c = as_scalar(scalar)
        return GradedVector(self.space, tuple(c * a for a in self.coords))

    def _check_space(self, other: "GradedVector"):
        if self.space.dim != other.space.dim:
            raise DimensionMismatch("vectors live in different spaces")

    def sparse(self) -> dict[int, Fraction]:
        return {i: c for i, c in enumerate(self.coords) if c != 0}


def vector_from_sparse(space: SuperSpace, entries: Mapping[int, Fraction]) -> GradedVector:
    coords = [ZERO] * space.dim
    for i, c in entries.items():
        coords[i] = c
    return GradedVector(space, tuple(coords))


@dataclass(frozen=True)
class GradedLinearMap:
    """A parity-homogeneous linear map; rows index the codomain basis.

    ``columns`` holds the image of each domain basis vector as a read-only
    sparse vector, built with the map from its nonzero entries."""

    domain: SuperSpace
    codomain: SuperSpace
    matrix: Matrix
    parity: int = 0
    columns: tuple[Mapping[int, Fraction], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        if len(self.matrix) != self.codomain.dim or any(
            len(row) != self.domain.dim for row in self.matrix
        ):
            raise DimensionMismatch("matrix shape does not match domain/codomain")
        columns: list[dict[int, Fraction]] = [{} for _ in range(self.domain.dim)]
        for i, row in enumerate(self.matrix):
            for j, entry in enumerate(row):
                if entry != 0:
                    if self.codomain.parity(i) != (self.domain.parity(j) + self.parity) % 2:
                        raise ParityViolation(
                            f"entry ({i}, {j}) = {entry} violates parity {self.parity}"
                        )
                    columns[j][i] = entry
        object.__setattr__(self, "columns", tuple(
            MappingProxyType(column) if column else EMPTY for column in columns))

    def __reduce__(self):
        # rebuilt from the matrix: the read-only columns do not pickle
        return GradedLinearMap, (self.domain, self.codomain, self.matrix, self.parity)

    @staticmethod
    def identity(space: SuperSpace) -> "GradedLinearMap":
        return GradedLinearMap(space, space, _linalg.identity_matrix(space.dim), 0)

    @staticmethod
    def zero(domain: SuperSpace, codomain: SuperSpace, parity: int = 0) -> "GradedLinearMap":
        return GradedLinearMap(domain, codomain, zero_matrix(codomain.dim, domain.dim), parity)

    def __call__(self, v: GradedVector) -> GradedVector:
        if v.space.dim != self.domain.dim:
            raise DimensionMismatch("vector not in the domain")
        return GradedVector(self.codomain, mat_vec(self.matrix, v.coords))

    def apply_sparse(self, entries: Mapping[int, Fraction]) -> dict[int, Fraction]:
        return apply(self.columns, entries)

    def compose(self, inner: "GradedLinearMap") -> "GradedLinearMap":
        """self after inner."""
        if inner.codomain.dim != self.domain.dim:
            raise DimensionMismatch("composition shape mismatch")
        return GradedLinearMap(
            inner.domain,
            self.codomain,
            mat_mul(self.matrix, inner.matrix),
            (self.parity + inner.parity) % 2,
        )

    def is_invertible(self) -> bool:
        return (
            self.domain.dim == self.codomain.dim
            and _linalg.determinant(self.matrix) != 0
        )

    def inverse(self) -> "GradedLinearMap":
        return GradedLinearMap(
            self.codomain, self.domain, _linalg.invert(self.matrix), self.parity
        )

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if other.parity != self.parity:
            raise ParityViolation("cannot add maps of different parities")
        return GradedLinearMap(
            self.domain, self.codomain, _linalg.mat_add(self.matrix, other.matrix), self.parity
        )

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if other.parity != self.parity:
            raise ParityViolation("cannot subtract maps of different parities")
        return GradedLinearMap(
            self.domain, self.codomain, _linalg.mat_sub(self.matrix, other.matrix), self.parity
        )

    def __rmul__(self, scalar) -> "GradedLinearMap":
        return GradedLinearMap(
            self.domain, self.codomain, _linalg.mat_scale(as_scalar(scalar), self.matrix), self.parity
        )


@dataclass(frozen=True)
class Tensor2:
    """An element of A (x) A as a dense coefficient matrix."""

    space: SuperSpace
    coeffs: Matrix
    parity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", freeze(self.coeffs))
        n = self.space.dim
        if len(self.coeffs) != n or any(len(row) != n for row in self.coeffs):
            raise DimensionMismatch("coefficient matrix shape mismatch")
        for i, row in enumerate(self.coeffs):
            for j, entry in enumerate(row):
                if entry != 0 and (
                    (self.space.parity(i) + self.space.parity(j)) % 2 != self.parity
                ):
                    raise ParityViolation(
                        f"tensor entry ({i}, {j}) = {entry} violates parity {self.parity}"
                    )

    @staticmethod
    def zero(space: SuperSpace, parity: int = 0) -> "Tensor2":
        return Tensor2(space, zero_matrix(space.dim, space.dim), parity)

    def is_zero(self) -> bool:
        return _linalg.is_zero_matrix(self.coeffs)

    def is_skew_supersymmetric(self) -> bool:
        return (self + sigma(self)).is_zero()

    def is_supersymmetric(self) -> bool:
        return (self - sigma(self)).is_zero()

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if other.parity != self.parity:
            raise ParityViolation("cannot add tensors of different parities")
        return Tensor2(self.space, _linalg.mat_add(self.coeffs, other.coeffs), self.parity)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        if other.parity != self.parity:
            raise ParityViolation("cannot subtract tensors of different parities")
        return Tensor2(self.space, _linalg.mat_sub(self.coeffs, other.coeffs), self.parity)

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.space, _linalg.mat_scale(Fraction(-1), self.coeffs), self.parity)

    def sparse(self) -> dict[tuple[int, int], Fraction]:
        return {
            (i, j): c
            for i, row in enumerate(self.coeffs)
            for j, c in enumerate(row)
            if c != 0
        }


def sigma(t: Tensor2) -> Tensor2:
    """The graded flip: sigma(b_i (x) b_j) = (-1)^{|b_i||b_j|} b_j (x) b_i."""
    n = t.space.dim
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        pi = t.space.parity(i)
        for j in range(n):
            c = t.coeffs[i][j]
            if c != 0:
                out[j][i] = koszul_sign(pi, t.space.parity(j)) * c
    return Tensor2(t.space, tuple(tuple(row) for row in out), t.parity)


@dataclass(frozen=True)
class Tensor3:
    """A sparse element of A (x) A (x) A, keyed by basis index triples."""

    space: SuperSpace
    coeffs: Mapping[tuple[int, int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {
            key: as_scalar(c) for key, c in self.coeffs.items() if c != 0
        }
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.space == other.space and dict(self.coeffs) == dict(other.coeffs)


def pair(x_star: GradedVector, y: GradedVector) -> Fraction:
    """Canonical pairing <x*, y>; on dual-basis pairs <b_i*, b_j> = delta_ij."""
    if x_star.space.dim != y.space.dim or (
        x_star.space.even_dim != y.space.even_dim
    ):
        raise DimensionMismatch("pairing of incompatible spaces")
    return sum(
        (a * b for a, b in zip(x_star.coords, y.coords)), start=ZERO
    )


def pair_tensor(s: Tensor2, t: Tensor2) -> Fraction:
    """Pairing of a dual 2-tensor against a 2-tensor.

    Extends the canonical pairing by
    <a1* (x) a2*, b1 (x) b2> = (-1)^{|a2*||b1|} <a1*, b1> <a2*, b2>.
    """
    if s.space.dim != t.space.dim or s.space.even_dim != t.space.even_dim:
        raise DimensionMismatch("pairing of incompatible spaces")
    total = ZERO
    for i, row in enumerate(s.coeffs):
        pi = t.space.parity(i)
        for j, c in enumerate(row):
            if c != 0 and t.coeffs[i][j] != 0:
                total += koszul_sign(t.space.parity(j), pi) * c * t.coeffs[i][j]
    return total
