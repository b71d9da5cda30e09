"""The public error paths of the value types and constructions, each with
its exception and message: the guards that refuse a malformed space,
vector, map or tensor, an odd candidate where only even ones are defined,
and an r that is not skew-supersymmetric."""

import pytest

from supermalcev import (
    BilinearForm,
    DimensionMismatch,
    GradedLinearMap,
    GradedVector,
    MybeCandidate,
    ParityViolation,
    SuperSpace,
    Tensor2,
    adjoint_representation,
    are_equivalent,
    check_malcev,
    fixtures,
    pair_tensor,
    r_from_o_operator,
    rb_from_invariant_form,
    symplectic_from_r,
)

S11 = SuperSpace(1, 1)
# the odd map b_1 -> b_0 of the 1|1 space, and the odd tensor b_0 (x) b_1
ODD_MAP = GradedLinearMap(S11, S11, [[0, 1], [0, 0]], 1)
ODD_TENSOR = Tensor2(S11, [[0, 1], [0, 0]], 1)


def test_a_malformed_space_is_refused():
    with pytest.raises(ValueError, match="^negative dimension$"):
        SuperSpace(-1, 0)
    with pytest.raises(ValueError, match="^duplicate basis labels$"):
        SuperSpace(2, 0, ("e", "e"))
    with pytest.raises(IndexError):
        S11.parity(2)


def test_vectors_and_maps_of_the_wrong_shape_are_refused():
    with pytest.raises(DimensionMismatch, match="^1 coordinates in a 2-dim space$"):
        GradedVector(S11, (1,))
    with pytest.raises(DimensionMismatch, match="^matrix shape does not match domain/codomain$"):
        GradedLinearMap(S11, S11, [[1, 0]])
    with pytest.raises(DimensionMismatch, match="^pairing of incompatible spaces$"):
        pair_tensor(Tensor2(S11, [[1, 0], [0, 0]]), Tensor2(SuperSpace(2, 0), [[1, 0], [0, 0]]))


@pytest.mark.parametrize("verb, combine", [("add", lambda a, b: a + b),
                                           ("subtract", lambda a, b: a - b)])
def test_sums_of_different_parities_are_refused(verb, combine):
    identity = GradedLinearMap(S11, S11, [[1, 0], [0, 1]])
    with pytest.raises(ParityViolation, match=f"^cannot {verb} maps of different parities$"):
        combine(identity, ODD_MAP)
    with pytest.raises(ParityViolation, match=f"^cannot {verb} tensors of different parities$"):
        combine(Tensor2(S11, [[1, 0], [0, 0]]), ODD_TENSOR)


def test_a_report_is_true_exactly_when_it_passes():
    assert bool(check_malcev(fixtures.sl2())) is True
    assert bool(check_malcev(fixtures.random_product(S11, seed=0))) is False


def test_an_odd_phi_fails_the_equivalence_precondition():
    R = adjoint_representation(fixtures.heisenberg_1_1())
    report = are_equivalent(R, R, ODD_MAP)
    assert (report.ok, report.precondition_failures) == (False, ("phi is not even",))
    assert (report.violation_count, report.checked_tuples, report.witnesses) == (0, 0, ())


def test_odd_candidates_and_operators_are_refused():
    with pytest.raises(ValueError, match=r"^only even candidates are supported \(\|r\| = 0\)$"):
        MybeCandidate(fixtures.heisenberg_1_1(), ODD_TENSOR)
    R = adjoint_representation(fixtures.heisenberg_1_1())
    with pytest.raises(ValueError, match="^only even operator candidates embed into the double$"):
        r_from_o_operator(ODD_MAP, R)


def test_an_r_that_is_not_skew_supersymmetric_is_refused():
    # on the zero 1|0 algebra every form is invariant, so B = [[1]] passes
    # every flag and the r check is the one that fails
    A = fixtures.zero_algebra()
    c = MybeCandidate(A, Tensor2(A.space, [[1]]))
    with pytest.raises(ValueError, match="^r is not skew-supersymmetric$"):
        symplectic_from_r(c)
    with pytest.raises(ValueError, match="^r is not skew-supersymmetric$"):
        rb_from_invariant_form(c, BilinearForm(A.space, [[1]]))


def test_a_bilinear_form_repr_shows_its_space_and_matrix():
    B = BilinearForm(SuperSpace(2, 0), [[0, 1], [1, 0]])
    assert repr(B) == f"BilinearForm(space={B.space!r}, matrix={B.matrix!r})"
    assert "matrix=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)))" in repr(B)
