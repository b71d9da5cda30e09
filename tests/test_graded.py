import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supermalcev import (
    DimensionMismatch,
    GradedLinearMap,
    ParityViolation,
    SuperSpace,
    Tensor2,
    direct_sum,
    koszul_sign,
    pair,
    pair_tensor,
    sigma,
)
from supermalcev import fixtures

parities = st.integers(min_value=0, max_value=5)
scalars = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(parities, parities)
def test_koszul_sign_symmetric(p, q):
    assert koszul_sign(p, q) == koszul_sign(q, p)
    assert koszul_sign(p, q) in (1, -1)


@given(parities, parities, parities)
def test_koszul_sign_biadditive(p, q, r):
    assert koszul_sign(p, q + r) == koszul_sign(p, q) * koszul_sign(p, r)


def _space_22():
    return SuperSpace(2, 2)


def _tensor(space, rows, parity=0):
    return Tensor2(space, tuple(tuple(Fraction(x) for x in row) for row in rows), parity)


@st.composite
def even_tensors(draw):
    space = _space_22()
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if space.parity(i) == space.parity(j):
                rows[i][j] = draw(scalars)
    return Tensor2(space, tuple(tuple(r) for r in rows), 0)


@given(even_tensors())
def test_sigma_is_an_involution(t):
    assert sigma(sigma(t)) == t
    assert sigma(t).parity == t.parity


@given(even_tensors())
def test_symmetrization_split(t):
    assert (t + sigma(t)).is_supersymmetric()
    assert (t - sigma(t)).is_skew_supersymmetric()


def seeded_tensor(space, parity, seed):
    """A seeded tensor of the given parity with denominators up to 5 and
    nonzero diagonal entries at even and at odd basis vectors."""
    rng = random.Random(seed)
    par = space.parities()
    return _tensor(space, [[Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3, 5)))
                            if (par[i] + par[j]) % 2 == parity else 0
                            for j in range(space.dim)] for i in range(space.dim)], parity)


def test_symmetry_predicates_match_their_definition():
    space = SuperSpace(2, 3)
    corpus = []
    for parity, seed in ((0, 1), (0, 2), (1, 3), (1, 4)):
        t = seeded_tensor(space, parity, seed)
        corpus += [t, t + sigma(t), t - sigma(t)]
    even_diagonal = _tensor(space, [[1 if i == j == 0 else 0 for j in range(5)]
                                    for i in range(5)])
    odd_diagonal = _tensor(space, [[1 if i == j == 4 else 0 for j in range(5)]
                                   for i in range(5)])
    corpus += [even_diagonal, odd_diagonal, Tensor2.zero(space, 1)]
    flags = set()
    for t in corpus:
        flag = (t.is_supersymmetric(), t.is_skew_supersymmetric())
        assert flag == ((t - sigma(t)).is_zero(), (t + sigma(t)).is_zero())
        flags.add(flag)
    assert flags == {(True, False), (False, True), (False, False), (True, True)}
    assert even_diagonal.is_supersymmetric() and odd_diagonal.is_skew_supersymmetric()


def test_sigma_spec_examples():
    space = _space_22()
    # e1 (x) e2 (both even) flips with sign +1
    t = _tensor(space, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert sigma(t).coeffs[1][0] == 1 and sigma(t).coeffs[0][1] == 0
    # f1 (x) f1 (odd (x) odd) picks up the sign -1
    t = _tensor(space, [[0] * 4, [0] * 4, [0, 0, 1, 0], [0] * 4])
    assert sigma(t).coeffs[2][2] == -1
    # an antisymmetric even matrix is skew-supersymmetric
    even = SuperSpace(2, 0)
    t = _tensor(even, [[0, 1], [-1, 0]])
    assert sigma(t) == -t
    assert t.is_skew_supersymmetric()


def test_pair_dual_basis_gram_is_identity():
    space = SuperSpace(2, 3)
    dual = space.dual()
    for i in range(space.dim):
        for j in range(space.dim):
            value = pair(dual.basis_vector(i), space.basis_vector(j))
            assert value == (1 if i == j else 0)


def test_pair_linearity_spec_example():
    space = SuperSpace(1, 1)
    dual = space.dual()
    xstar = dual.vector([1, 2])  # e1* + 2 f1*
    assert pair(xstar, space.basis_vector(1)) == 2


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pair(SuperSpace(2, 0).dual().zero(), SuperSpace(3, 0).zero())


# each pair of spaces has one total dimension and different (even, odd) ones


def test_map_applies_only_to_vectors_of_its_even_and_odd_dimensions():
    # the odd f1 of 1|2 once came back as e2, an even vector of 2|1
    with pytest.raises(DimensionMismatch, match="vector not in the domain"):
        GradedLinearMap.identity(SuperSpace(2, 1))(SuperSpace(1, 2).basis_vector(1))


def test_vectors_add_only_in_equal_even_and_odd_dimensions():
    x, y = SuperSpace(2, 1).basis_vector(0), SuperSpace(1, 2).basis_vector(0)
    for combine in (lambda: x + y, lambda: x - y):
        with pytest.raises(DimensionMismatch, match="vectors live in different spaces"):
            combine()


def test_maps_compose_only_through_equal_even_and_odd_dimensions():
    inner = GradedLinearMap.zero(SuperSpace(1, 0), SuperSpace(2, 0))
    outer = GradedLinearMap.zero(SuperSpace(1, 1), SuperSpace(1, 0))
    with pytest.raises(DimensionMismatch, match="composition shape mismatch"):
        outer.compose(inner)


def test_algebra_multiplies_only_vectors_of_its_even_and_odd_dimensions():
    heis = fixtures.heisenberg_1_1()
    x = SuperSpace(0, 2).basis_vector(1)
    for args in ((x, heis.space.basis_vector(1)), (heis.space.basis_vector(1), x)):
        with pytest.raises(DimensionMismatch, match="vectors do not live in the algebra's space"):
            heis.mul(*args)


def test_pair_tensor_spec_examples():
    space = SuperSpace(2, 1)
    dual = space.dual()

    def t2(space_, entries):
        rows = [[Fraction(0)] * space_.dim for _ in range(space_.dim)]
        for (i, j), c in entries.items():
            rows[i][j] = Fraction(c)
        return Tensor2(space_, tuple(tuple(r) for r in rows), 0)

    e1e2_star = t2(dual, {(0, 1): 1})
    e1e2 = t2(space, {(0, 1): 1})
    e2e1 = t2(space, {(1, 0): 1})
    assert pair_tensor(e1e2_star, e1e2) == 1
    assert pair_tensor(e1e2_star, e2e1) == 0
    f1f1_star = t2(dual, {(2, 2): 1})
    f1f1 = t2(space, {(2, 2): 1})
    assert pair_tensor(f1f1_star, f1f1) == -1


def test_tensor_parity_enforced():
    space = SuperSpace(1, 1)
    with pytest.raises(ParityViolation):
        _tensor(space, [[0, 1], [0, 0]], parity=0)  # even (x) odd entry in even tensor
    _tensor(space, [[0, 1], [0, 0]], parity=1)  # fine as an odd tensor


def test_graded_linear_map_parity_enforced():
    space = SuperSpace(1, 1)
    with pytest.raises(ParityViolation):
        GradedLinearMap(space, space, ((0, 1), (0, 0)), 0)
    odd = GradedLinearMap(space, space, ((0, 1), (1, 0)), 1)
    assert odd.parity == 1


def test_map_compose_apply_inverse():
    space = SuperSpace(2, 1)
    m = GradedLinearMap(space, space, ((1, 2, 0), (0, 1, 0), (0, 0, 3)), 0)
    v = space.vector([1, 1, 2])
    assert m(v).coords == (Fraction(3), Fraction(1), Fraction(6))
    inv = m.inverse()
    assert inv.compose(m).matrix == GradedLinearMap.identity(space).matrix
    assert m.is_invertible()
    singular = GradedLinearMap(space, space, ((1, 2, 0), (2, 4, 0), (0, 0, 1)), 0)
    assert not singular.is_invertible()


def test_stored_columns_are_read_only_and_outside_equality():
    space = SuperSpace(2, 1)
    m = GradedLinearMap(space, space, ((1, 2, 0), (0, Fraction(-1, 3), 0), (0, 0, 0)), 0)
    assert m.columns == ({0: 1}, {0: 2, 1: Fraction(-1, 3)}, {})
    assert m.columns == tuple({i: row[j] for i, row in enumerate(m.matrix) if row[j]}
                              for j in range(space.dim))
    with pytest.raises(TypeError):
        m.columns[0][1] = Fraction(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.columns = ()
    same = GradedLinearMap(space, space, m.matrix, 0)
    assert same.columns is not m.columns
    assert same == m and hash(same) == hash(m)
    assert "columns" not in repr(m)
    assert [f.name for f in dataclasses.fields(m) if f.compare or f.hash or f.repr] == [
        "domain", "codomain", "matrix", "parity"]
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert twin == m and twin.columns == m.columns


@pytest.mark.parametrize("parity", [0, 1])
def test_apply_sparse_equals_call(parity):
    rng = random.Random(parity)
    domain, codomain = SuperSpace(3, 2), SuperSpace(2, 3)
    for _ in range(20):
        m = fixtures.random_even_matrix(domain, codomain, parity, rng)
        T = GradedLinearMap(domain, codomain, tuple(
            tuple(c / rng.choice((1, 2, 3)) for c in row) for row in m.matrix), parity)
        v = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for j in rng.sample(range(domain.dim), rng.randint(0, domain.dim))}
        dense = domain.vector([v.get(j, 0) for j in range(domain.dim)])
        assert T.apply_sparse(v) == T(dense).sparse()


def test_vector_parity_and_arithmetic():
    space = SuperSpace(1, 1)
    assert space.zero().parity() == 0
    assert space.basis_vector(0).parity() == 0
    assert space.basis_vector(1).parity() == 1
    assert space.vector([1, 1]).parity() is None
    v = space.vector([1, 0]) + 2 * space.basis_vector(1)
    assert v.coords == (Fraction(1), Fraction(2))
    assert (v - v).is_zero()


def test_direct_sum_interleaves_even_first():
    a = SuperSpace(1, 1, ("a", "b"))
    b = SuperSpace(2, 1, ("c", "d", "e"))
    total, emb_a, emb_b = direct_sum(a, b)
    assert (total.even_dim, total.odd_dim) == (3, 2)
    assert total.labels == ("a", "c", "d", "b", "e")
    for i in range(a.dim):
        assert total.parity(emb_a[i]) == a.parity(i)
    for j in range(b.dim):
        assert total.parity(emb_b[j]) == b.parity(j)


def test_direct_sum_renames_duplicate_labels():
    a = SuperSpace(2, 0, ("x", "y"))
    total, _, _ = direct_sum(a, a)
    assert len(set(total.labels)) == 4


def test_scalar_serialization_form():
    # canonical reduced p/q strings with positive denominator
    assert str(Fraction(6, -4)) == "-3/2"
    assert str(Fraction(4, 2)) == "2"
    assert Fraction("-3/2") == Fraction(-3, 2)
