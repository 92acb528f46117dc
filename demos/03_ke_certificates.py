#!/usr/bin/env python3
"""The three existence tests and how they interact.

The Fano condition is a sign test.  The necessary klt inequality can only
rule candidates out.  The Brieskorn-Pham sufficiency inequality certifies
a Kähler-Einstein orbifold metric (hence a Sasakian-Einstein metric on the
link) for generic perturbations.  All three are decided in exact rational
arithmetic.
"""

from selinks import (
    WeightSystem,
    bp_sufficient_ke,
    certify_cover,
    euclidean_k_threshold,
    hyperbolic_k_window,
)

# Hyperbolic base (1,1,1,1;5): Fano only for k < 5.  certify_cover decides
# every test of a cover at once; its certificate reads the Fano sign.
base = WeightSystem((1, 1, 1, 1), 5)
print("Fano window for covers of", base, "->",
      [k for k in range(2, 10) if certify_cover(k, base).fano])

# Necessary klt threshold on the Euclidean classes.
for weights, d in [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]:
    ws = WeightSystem(weights, d)
    print(f"necessary-klt threshold for {ws}: k >= {euclidean_k_threshold(ws)}")

# The sufficiency test on exponent vectors.  (3,4,4,4) is the (l,k)=(4,3)
# cover in dimension 5; (2,4,4,4) fails the right-hand bound.
for a in [(3, 4, 4, 4), (2, 4, 4, 4), (5, 6, 6, 2), (13, 4, 4, 4, 4)]:
    res = bp_sufficient_ke(a)
    print(f"exponents {a}: sum 1/a_i = {res.reciprocal_sum}, "
          f"bound = {res.bound}, certified = {res.verdict} "
          f"(limited by {res.limiting_witness})")

# For Fermat bases of degree l in m variables the sufficiency inequality
# reduces to an open interval of branch orders.
print()
print("admissible branch orders for hyperbolic Fermat bases:")
for m in range(3, 7):
    for l in range(m + 1, 2 * m):
        win = hyperbolic_k_window(m, l)
        if win.solutions:
            print(f"  m={m} l={l}: ({win.lower}, {win.upper}) "
                  f"-> k in {win.solutions}")

# A full certificate bundles every verdict; neither klt-flavored test
# implies the other.
cert = certify_cover(13, WeightSystem((1, 1, 1, 1), 4))
print()
print("certificate for the k=13 cover of (1,1,1,1;4):")
print(f"  fano={cert.fano} necessary_klt={cert.necessary_klt} "
      f"bp_sufficient={cert.bp_sufficient} gc_assumed={cert.gc_assumed}")
print(f"  decisive inequality: {cert.left_value} < {cert.right_bound}")

# necessary_klt alone proves nothing: spherical bases below the boundary
# regime fail it for every k.
spherical = WeightSystem((1, 1, 1), 2)
print(f"necessary_klt on spherical {spherical}: "
      f"{[k for k in range(2, 20) if certify_cover(k, spherical).necessary_klt]}")
