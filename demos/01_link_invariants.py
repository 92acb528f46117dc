#!/usr/bin/env python3
"""Invariants of links of weighted homogeneous singularities.

A weight system (w_1,...,w_m; d) describes the class of polynomials
f(z_1,...,z_m) with f(t^{w_i} z_i) = t^d f(z).  This walk-through computes
the middle Betti number of the link by the Milnor-Orlik subset formula,
cross-checks it by brute-force enumeration on Brieskorn systems, and
derives torsion orders of cyclic branched covers.
"""

from selinks import (
    WeightSystem,
    betti_bp_oracle,
    branched_cover,
    classify_case,
    genus,
    milnor_orlik_betti,
    quasi_smooth_generic,
    torsion_order,
)

# The cusp-like class (1,2,3;6) contains z1^6 + z2^3 + z3^2; its link is a
# 3-manifold fibered over a genus-1 curve.
ws = WeightSystem((1, 2, 3), 6)
print(f"system {ws}: case={classify_case(ws).value}, "
      f"quasi-smooth={quasi_smooth_generic(ws)}")
print(f"  b1 = {milnor_orlik_betti(ws)}  (equals 2g with g = {genus(ws)})")

# The same number by direct enumeration over the Brieskorn exponents
# (6,3,2): count the lattice points j with sum j_i/a_i an integer.
print(f"  enumeration oracle on exponents (6,3,2): {betti_bp_oracle((6, 3, 2))}")

# Middle Betti numbers of the Fermat Calabi-Yau links grow fast with the
# number of variables: 21 in dimension 5 of the base (m=4), 204 for m=5.
for m in (4, 5):
    fermat = WeightSystem((1,) * m, m)
    print(f"Fermat CY m={m}: b_{m - 2} = {milnor_orlik_betti(fermat)}")

# A k-fold branched cover z_0^k + f has middle homology of order k^b
# whenever k is coprime to every reduced numerator of d/w_i.  The order is
# kept factored: 13^21 in decimal only on request.
cover = branched_cover(13, WeightSystem((1, 1, 1, 1), 4))
print(f"cover of (1,1,1,1;4) by k=13: weights {cover.cover}, "
      f"BP exponents {cover.bp_exponents}")
t = torsion_order(13, WeightSystem((1, 1, 1, 1), 4))
print(f"  |H_2| = {t} = {t.expand()}")

# Systems without a quasi-smooth member are caught up front: every
# degree-5 monomial in weights (1,2,2) contains the first variable.
bad = WeightSystem((1, 2, 2), 5)
print(f"system {bad}: quasi-smooth={quasi_smooth_generic(bad)}")
