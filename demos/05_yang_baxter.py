#!/usr/bin/env python3
# The super Malcev Yang-Baxter equation: tensor form, operator form, the
# double construction r = T - sigma(T), and the canonical solution.

from supermalcev import (
    BilinearForm,
    MybeCandidate,
    Tensor2,
    adjoint_representation,
    canonical_r,
    check_operator_form,
    check_pre_malcev,
    check_rota_baxter,
    check_symplectic,
    commutator_superalgebra,
    mybe_lhs,
    pre_malcev_from_symplectic,
    r_from_o_operator,
    rb_from_invariant_form,
    symplectic_from_r,
)
from supermalcev import fixtures

sl2 = fixtures.sl2()

# A solution on sl(2): r = h /\ e solves the tensor equation.
r = Tensor2(sl2.space, ((0, 1, 0), (-1, 0, 0), (0, 0, 0)), 0)
c = MybeCandidate(sl2, r)
print("r = h^e skew:", r.is_skew_supersymmetric())
print("tensor form [r12,r13]+[r12,r23]+[r13,r23] = 0:", mybe_lhs(c).is_zero())
print("operator form (O-operator for ad*):", check_operator_form(c).ok)

# Perturbing one coefficient pair breaks both forms at once.
bad = MybeCandidate(sl2, Tensor2(sl2.space, ((0, 1, 1), (-1, 0, 0), (-1, 0, 0)), 0))
print("perturbed: tensor zero =", mybe_lhs(bad).is_zero(),
      "/ operator form =", check_operator_form(bad).ok)

# Every even map T: V -> A embeds into the double A x V* as T - sigma(T);
# it solves the MYBE there exactly when T is an O-operator.
R = adjoint_representation(sl2)
rb = fixtures.rb_sl2_nilpotent()
cand = r_from_o_operator(rb, R)
print("\ndouble of sl(2):", cand.algebra.space.labels)
print("r = T - sigma(T) skew:", cand.r.is_skew_supersymmetric())
print("solves the MYBE in the double:", mybe_lhs(cand).is_zero())

# The canonical solution attached to any pre-Malcev superalgebra; on a 1|1
# fixture the odd block of r is symmetric, as the grading demands.
c11 = canonical_r(fixtures.pre_malcev_1_1())
print("\ncanonical r over", c11.algebra.space.labels)
for row in c11.r.coeffs:
    print("  ", [str(x) for x in row])
print("both forms pass:", mybe_lhs(c11).is_zero() and check_operator_form(c11).ok)

# Nondegenerate solutions are the same thing as symplectic forms.
omega = symplectic_from_r(c11)
print("\nomega = <r^{-1} . , .> is symplectic:",
      check_symplectic(omega, c11.algebra).ok)
P = pre_malcev_from_symplectic(omega, c11.algebra)
print("symplectic route gives a compatible pre-Malcev product:",
      check_pre_malcev(P).ok and
      commutator_superalgebra(P).table("mul") == c11.algebra.table("mul"))

# With an invariant form, a solution turns into a Rota-Baxter operator.
ad = adjoint_representation(sl2)
killing = BilinearForm(sl2.space, tuple(
    tuple(sum(ad.action[i].compose(ad.action[j]).columns[k].get(k, 0)
              for k in range(3)) for j in range(3))
    for i in range(3)))
rt = rb_from_invariant_form(c, killing)
print("\nr-tilde = r o phi from the trace form is Rota-Baxter:",
      check_rota_baxter(rt, sl2).ok)
