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
    Tensor3,
    direct_sum,
    koszul_sign,
    pair,
    pair_tensor,
    sigma,
)
from supermalcev import fixtures
from supermalcev.serialize import AlgebraDocument, serialize
from rational_inputs import divided, shuffled
import dense_linalg

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


def test_maps_and_tensors_add_only_in_equal_even_and_odd_dimensions():
    # a 2|0 identity plus the 3|0 identity once came back as 2 I on 2|0
    two = GradedLinearMap(SuperSpace(2, 0), SuperSpace(2, 0), ((1, 0), (0, 1)))
    maps = (GradedLinearMap.identity(SuperSpace(3, 0)),
            GradedLinearMap.zero(SuperSpace(3, 0), SuperSpace(2, 0)),
            GradedLinearMap.zero(SuperSpace(2, 0), SuperSpace(1, 1)))
    tensor = Tensor2(SuperSpace(2, 0), ((1, 0), (0, 1)))
    tensors = (Tensor2.zero(SuperSpace(3, 0)), Tensor2.zero(SuperSpace(1, 1)))
    for x, others, what in ((two, maps, "maps"), (tensor, tensors, "tensors")):
        for y in others:
            for combine, verb in ((lambda: x + y, "add"), (lambda: y + x, "add"),
                                  (lambda: x - y, "subtract"), (lambda: y - x, "subtract")):
                with pytest.raises(DimensionMismatch, match=(
                        rf"cannot {verb} {what} of different \(even, odd\) dimensions")):
                    combine()
    assert two + two == 2 * two and (tensor - tensor).is_zero()


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


@pytest.mark.parametrize("c", [2, 0])
@pytest.mark.parametrize("key, error", [
    ((0, 0), DimensionMismatch), ((0, 1, 1, 0), DimensionMismatch),
    ((5, 5, 5), IndexError), ((0, 2, 0), IndexError), ((0, 0, -1), IndexError)])
def test_tensor3_refuses_a_key_that_is_not_a_basis_index_triple(key, error, c):
    # negative indices too: they must not wrap around to the odd end of the basis
    with pytest.raises(error):
        Tensor3(SuperSpace(1, 1), {(0, 1, 1): 1, key: c})


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


def test_a_non_square_map_has_no_inverse():
    for domain, codomain in ((SuperSpace(2, 1), SuperSpace(1, 1)),
                             (SuperSpace(1, 1), SuperSpace(2, 1))):
        T = fixtures.random_even_matrix(domain, codomain, 0, random.Random(7), 1, 2)
        assert not T.is_invertible()
        with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
            T.inverse()


def test_the_inverse_of_an_odd_map_is_odd_and_equals_the_dense_inverse():
    rng = random.Random(2601)
    domain, codomain = SuperSpace(2, 3), SuperSpace(3, 2)
    seen = set()
    for _ in range(30):
        T = divided(fixtures.random_even_matrix(domain, codomain, 1, rng), "operator", rng)
        try:
            want = dense_linalg.invert(T.matrix)
        except ValueError:
            assert not T.is_invertible()
            with pytest.raises(ValueError, match="^singular matrix$"):
                T.inverse()
            seen.add("singular")
            continue
        inverse = T.inverse()
        assert T.is_invertible()
        assert (inverse.domain, inverse.codomain, inverse.parity) == (codomain, domain, 1)
        assert inverse.matrix == want
        assert inverse.compose(T) == GradedLinearMap.identity(domain)
        seen.add("invertible")
    assert seen == {"singular", "invertible"}


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
    # the columns are the one stored form; the dense matrix is not stored
    assert [f.name for f in dataclasses.fields(m)] == ["domain", "codomain", "parity", "columns"]
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


def test_labels_given_as_a_list_are_stored_as_a_tuple():
    space = SuperSpace(1, 0, ["a"])
    assert space.labels == ("a",) and type(space.labels) is tuple
    assert space == SuperSpace(1, 0, ("a",))
    assert hash(space) == hash(SuperSpace(1, 0, ("a",)))


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


# -- the dense constructors against the ones from columns and entries -----


def oracle_sigma(t: Tensor2) -> Tensor2:
    """The graded flip on the dense coefficient matrix."""
    n, par = t.space.dim, t.space.parities()
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(t.coeffs):
        for j, c in enumerate(row):
            if c != 0:
                out[j][i] = koszul_sign(par[i], par[j]) * c
    return Tensor2(t.space, out, t.parity)


def oracle_pair_tensor(s: Tensor2, t: Tensor2) -> Fraction:
    """<a1* (x) a2*, b1 (x) b2> = (-1)^{|a2*||b1|} <a1*, b1> <a2*, b2>, summed
    over the dense coefficient matrices."""
    total, par = Fraction(0), t.space.parities()
    for i, row in enumerate(s.coeffs):
        for j, c in enumerate(row):
            if c != 0 and t.coeffs[i][j] != 0:
                total += koszul_sign(par[j], par[i]) * c * t.coeffs[i][j]
    return total


def oracle_flips_to(c, par, sign) -> bool:
    """c_ji = sign (-1)^{|i||j|} c_ij for all i, j of a dense matrix."""
    return all(c[j][i] == sign * koszul_sign(par[i], par[j]) * c[i][j]
               for i in range(len(c)) for j in range(i, len(c)))


MAP_SHAPES = [((0, 0), (0, 0)), ((0, 2), (0, 3)), ((3, 0), (2, 0)), ((0, 2), (2, 0)),
              ((2, 1), (1, 2)), ((3, 2), (2, 3))]
TENSOR_SHAPES = [(0, 0), (0, 3), (3, 0), (2, 2), (2, 3)]


def random_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 7)))


def random_columns(domain, codomain, parity, rng, density=0.6):
    """Sparse rational columns of a map of this parity."""
    return [{i: random_entry(rng) for i in range(codomain.dim)
             if codomain.parity(i) == (domain.parity(j) + parity) % 2 and rng.random() < density}
            for j in range(domain.dim)]


def random_entries(space, parity, rng, density=0.6):
    """Sparse rational entries of a 2-tensor of this parity."""
    par = space.parities()
    return {(i, j): random_entry(rng) for i in range(space.dim) for j in range(space.dim)
            if (par[i] + par[j]) % 2 == parity and rng.random() < density}


def dense(entries, nrows, ncols):
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for (i, j), c in entries.items():
        rows[i][j] = c
    return tuple(tuple(row) for row in rows)


def assert_twins(a, b):
    """Two constructions of one value agree on everything observable."""
    assert a == b and b == a and hash(a) == hash(b) and repr(a) == repr(b)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == b and hash(twin) == hash(b)


@pytest.mark.parametrize("shape", MAP_SHAPES)
@pytest.mark.parametrize("parity", [0, 1])
def test_a_map_from_columns_equals_the_map_from_its_matrix(shape, parity):
    (de, do), (ce, co) = shape
    domain, codomain = SuperSpace(de, do), SuperSpace(ce, co)
    rng = random.Random(f"{shape} {parity}")
    for _ in range(8):
        columns = random_columns(domain, codomain, parity, rng)
        matrix = dense({(i, j): c for j, col in enumerate(columns) for i, c in col.items()},
                       codomain.dim, domain.dim)
        by_matrix = GradedLinearMap(domain, codomain, matrix, parity)
        by_columns = GradedLinearMap._from_columns(
            domain, codomain, [shuffled(c, rng) for c in columns], parity)
        assert_twins(by_matrix, by_columns)
        for m in (by_matrix, by_columns):
            assert m.matrix == matrix and type(m.matrix) is tuple
            assert all(type(row) is tuple and all(type(c) is Fraction for c in row)
                       for row in m.matrix)
            assert m.columns == tuple(columns)
            assert [list(c) for c in m.columns] == [sorted(c) for c in columns]
        algebra = fixtures.zero_algebra(ce, co)
        assert serialize(AlgebraDocument(algebra, linear_map=by_matrix)) == serialize(
            AlgebraDocument(algebra, linear_map=by_columns))
        assert by_matrix + by_columns == 2 * by_columns
        assert (by_matrix - by_columns).columns == ({},) * domain.dim


@pytest.mark.parametrize("shape", [s for s in MAP_SHAPES if s[0] != (0, 0) != s[1]])
def test_both_map_constructors_name_the_same_parity_violation(shape):
    (de, do), (ce, co) = shape
    domain, codomain = SuperSpace(de, do), SuperSpace(ce, co)
    rng = random.Random(str(shape))
    for parity in (0, 1):
        wrong = [(i, j) for i in range(codomain.dim) for j in range(domain.dim)
                 if codomain.parity(i) != (domain.parity(j) + parity) % 2]
        for _ in range(4 if wrong else 0):
            columns = random_columns(domain, codomain, parity, rng)
            for i, j in rng.sample(wrong, min(len(wrong), 2)):
                columns[j][i] = random_entry(rng)
            matrix = dense({(i, j): c for j, col in enumerate(columns) for i, c in col.items()},
                           codomain.dim, domain.dim)
            with pytest.raises(ParityViolation) as by_matrix:
                GradedLinearMap(domain, codomain, matrix, parity)
            with pytest.raises(ParityViolation) as by_columns:
                GradedLinearMap._from_columns(domain, codomain, columns, parity)
            assert str(by_matrix.value) == str(by_columns.value)
            i, j = min(key for key in wrong if matrix[key[0]][key[1]])
            assert str(by_matrix.value) == (
                f"entry ({i}, {j}) = {matrix[i][j]} violates parity {parity}")


@pytest.mark.parametrize("shape", TENSOR_SHAPES)
@pytest.mark.parametrize("parity", [0, 1])
def test_a_tensor_from_entries_equals_the_tensor_from_its_matrix(shape, parity):
    space = SuperSpace(*shape)
    rng = random.Random(f"{shape} {parity}")
    for _ in range(8):
        entries = random_entries(space, parity, rng)
        coeffs = dense(entries, space.dim, space.dim)
        by_matrix = Tensor2(space, coeffs, parity)
        by_entries = Tensor2._from_entries(space, shuffled(entries, rng), parity)
        assert_twins(by_matrix, by_entries)
        for t in (by_matrix, by_entries):
            assert t.coeffs == coeffs and type(t.coeffs) is tuple
            assert all(type(c) is Fraction for row in t.coeffs for c in row)
            assert t.sparse() == entries and list(t.sparse()) == sorted(entries)
            assert t.is_zero() == (not entries)
        algebra = fixtures.zero_algebra(*shape)
        assert serialize(AlgebraDocument(algebra, tensor2=by_matrix)) == serialize(
            AlgebraDocument(algebra, tensor2=by_entries))
        wrong = [(i, j) for i in range(space.dim) for j in range(space.dim)
                 if (space.parity(i) + space.parity(j)) % 2 != parity]
        if wrong:
            bad = dict(entries)
            for key in rng.sample(wrong, min(len(wrong), 2)):
                bad[key] = random_entry(rng)
            with pytest.raises(ParityViolation) as raised_by_matrix:
                Tensor2(space, dense(bad, space.dim, space.dim), parity)
            with pytest.raises(ParityViolation) as raised_by_entries:
                Tensor2._from_entries(space, bad, parity)
            i, j = min(key for key in wrong if key in bad)
            assert str(raised_by_matrix.value) == str(raised_by_entries.value) == (
                f"tensor entry ({i}, {j}) = {bad[i, j]} violates parity {parity}")


@pytest.mark.parametrize("shape", TENSOR_SHAPES)
def test_sigma_pairing_and_symmetry_match_their_dense_oracles(shape):
    space = SuperSpace(*shape)
    par = space.parities()
    rng = random.Random(str(shape))
    flags = set()
    for parity in (0, 1):
        for _ in range(6):
            t = Tensor2._from_entries(space, random_entries(space, parity, rng), parity)
            s = Tensor2._from_entries(space.dual(), random_entries(space, parity, rng), parity)
            assert pair_tensor(s, t) == oracle_pair_tensor(s, t)
            for u in (t, t + sigma(t), t - sigma(t), -t, sigma(t)):
                assert sigma(u) == oracle_sigma(u)
                for sign, predicate in ((1, u.is_supersymmetric), (-1, u.is_skew_supersymmetric)):
                    assert predicate() == oracle_flips_to(u.coeffs, par, sign)
                flags.add((u.is_supersymmetric(), u.is_skew_supersymmetric()))
    if space.dim:
        assert {(True, False), (False, True)} <= flags
