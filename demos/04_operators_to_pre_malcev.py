#!/usr/bin/env python3
# Super O-operators and Rota-Baxter operators, and how each one induces a
# pre-Malcev (or pre-alternative) structure.

from supermalcev import (
    GradedLinearMap,
    check_pre_alternative,
    check_pre_malcev,
    coadjoint_representation,
    commutator_superalgebra,
    compatible_pre_malcev_from_invertible_oop,
    left_multiplication_representation,
    pre_alternative_from_o_operator,
    pre_malcev_from_o_operator,
    pre_malcev_from_pre_alternative,
    pre_malcev_from_rota_baxter,
    regular_bimodule,
    search_o_operators_alternative,
    search_o_operators_malcev,
    search_rota_baxter,
    sum_pre_alternative,
)
from supermalcev import fixtures

sl2 = fixtures.sl2()

# Integer grid search for weight-zero Rota-Baxter operators: each exact
# residual component cuts the values left for its last entry, and the search
# returns what trying every candidate would, in the same order.
found = search_rota_baxter(sl2, values=(-1, 0, 1))
print("Rota-Baxter operators on sl(2) with entries in {-1,0,1}:", len(found))
rb = fixtures.rb_sl2_nilpotent()
print("the map f -> e is among them:",
      any(T.matrix == rb.matrix for T in found))

# x.y = [R(x), y] is pre-Malcev (here in fact pre-Lie).
P = pre_malcev_from_rota_baxter(rb, sl2)
print("x.y = [R(x), y] passes pre-Malcev:", check_pre_malcev(P).ok)
print("nonzero products:", {
    (i, j): {k: str(c) for k, c in enumerate(P.table("mul")[i][j]) if c}
    for i in range(3) for j in range(3)
    if any(P.table("mul")[i][j])
})

# O-operators for the coadjoint action give pre-Malcev products on duals.
coad = coadjoint_representation(sl2)
ops = [T for T in search_o_operators_malcev(coad, values=(-1, 0, 1))
       if any(any(c for c in row) for row in T.matrix)]
print("\nnonzero O-operators for (sl(2), ad*):", len(ops))
Q = pre_malcev_from_o_operator(ops[0], coad)
print("induced product on the dual passes pre-Malcev:", check_pre_malcev(Q).ok)

# An invertible O-operator yields a compatible structure: its commutator
# recovers the original bracket exactly.
P11 = fixtures.pre_malcev_1_1()
L = left_multiplication_representation(P11)
comp = compatible_pre_malcev_from_invertible_oop(
    GradedLinearMap.identity(P11.space), L)
print("\ncompatible structure recovers the 1|1 product:",
      comp.table("mul") == P11.table("mul"))
print("its commutator equals the sub-adjacent bracket:",
      commutator_superalgebra(comp).table("mul") == L.algebra.table("mul"))

# Alternative side: a Rota-Baxter operator on the split octonions splits
# the product into (prec, succ), and the square of constructions commutes.
Z = fixtures.zorn_split_octonions()
B = regular_bimodule(Z)
T = search_o_operators_alternative(B, values=(1,), support=((2, 3),))[0]
PA = pre_alternative_from_o_operator(T, B)
print("\npre-alternative structure from the octonion Rota-Baxter map:",
      check_pre_alternative(PA).ok)
path1 = commutator_superalgebra(sum_pre_alternative(PA))
path2 = commutator_superalgebra(pre_malcev_from_pre_alternative(PA))
print("sum-then-commutator == derived-product-then-commutator:",
      path1.table("mul") == path2.table("mul"))
