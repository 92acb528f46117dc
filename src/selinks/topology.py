"""Topological invariants of links: Betti numbers, torsion orders, genus.

The middle Betti number of the link of a quasi-smooth weighted homogeneous
polynomial comes from the Milnor-Orlik inclusion-exclusion formula over
index subsets; in three variables it specializes to twice the genus of the
orbit curve (Orlik-Wagreich).  The k-fold branched cover of such a link,
for k coprime to the degree of the reduced system, is a rational homology
sphere whose middle homology has order k^{b_{m-2}}.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .arith import FactoredPower
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .links import WeightSystem, torsion_hypothesis

# the most bit operations the Milnor-Orlik pass may charge: before each index,
# per entry its lcm table may then hold (twice those it holds), the bits of a
# running sum times those of u_i + v_i, at least 2^14 for the interpreter's
# work; at the limit the pass takes about 0.4 s, and past it it is refused
MILNOR_ORLIK_WORK_LIMIT = 10**10

__all__ = [
    "milnor_orlik_betti",
    "betti_bp_oracle",
    "fermat_betti",
    "genus",
    "torsion_order",
]


def milnor_orlik_betti(ws: WeightSystem) -> int:
    """Middle Betti number b_{m-2} of the link, by the Milnor-Orlik formula.

    The formula sums (-1)^(m-s) u_{i_1}...u_{i_s} / (v_{i_1}...v_{i_s}
    lcm(u_{i_1},...)) over all 2^m index subsets, where u_i/v_i = d/w_i in
    lowest terms; the empty subset contributes (-1)^m.  The taken indices
    interact only through the lcm of their u_i, which divides d, so one
    pass over the indices carries, for each such lcm L, the signed sum of
    the products so far, scaled by prod v_i to stay integral: leaving an
    index out multiplies by -v_i, taking it multiplies by u_i and moves the
    entry to lcm(L, u_i).  The cost is O(m tau(d)) instead of 2^m, refused
    past MILNOR_ORLIK_WORK_LIMIT.  For a system with an isolated singularity
    the total is a non-negative integer; anything else raises IntegrityError
    rather than being rounded, so integrality doubles as an input check.
    """
    d = ws.degree
    sums = {1: 1}
    scale = 1
    # |sum| < the product of the u_i + v_i so far; d's bits stand for the lcm
    bits, spent = d.bit_length(), 0
    for w in ws.weights:
        g = math.gcd(d, w)
        u, v = d // g, w // g
        scale *= v
        factor_bits = (u + v).bit_length()
        bits += factor_bits
        spent += 2 * len(sums) * max(bits * factor_bits, 2**14)
        if spent > MILNOR_ORLIK_WORK_LIMIT:
            raise ResourceBudgetError(
                f"the Milnor-Orlik sum of {ws} charges more than the limit of "
                f"{MILNOR_ORLIK_WORK_LIMIT} bit operations"
            )
        step: dict[int, int] = {}
        for lcm_u, value in sums.items():
            step[lcm_u] = step.get(lcm_u, 0) - v * value
            taken = math.lcm(lcm_u, u)
            step[taken] = step.get(taken, 0) + u * value
        sums = step
    # every L divides d
    numerator = sum(value * (d // lcm_u) for lcm_u, value in sums.items())
    total, rest = divmod(numerator, d * scale)
    if rest or total < 0:
        raise IntegrityError(
            f"b_{ws.m - 2} of {ws} evaluates to {Fraction(numerator, d * scale)}, which is "
            "not a non-negative integer; no member of the class is quasi-smooth"
        )
    return total


def betti_bp_oracle(a: Iterable[int], budget: int = 10_000_000) -> int:
    """Middle Betti number of a Brieskorn link z_1^{a_1} + ... + z_m^{a_m}.

    Independent brute-force count: enumerate the tuples (j_1, ..., j_m)
    with 1 <= j_i <= a_i - 1 and sum j_i / a_i an integer.  Exists purely
    as an oracle against `milnor_orlik_betti`; cost is prod(a_i - 1),
    guarded by `budget`.
    """
    a = tuple(a)
    if any(ai < 2 for ai in a):
        raise UsageError(f"exponents must be at least 2, got {a}")
    work = math.prod(ai - 1 for ai in a)
    if work > budget:
        raise ResourceBudgetError(
            f"enumerating {work} tuples exceeds the budget of {budget}"
        )
    big_l = math.lcm(*a)
    steps = [big_l // ai for ai in a]
    count = 0
    for js in itertools.product(*(range(1, ai) for ai in a)):
        if sum(j * s for j, s in zip(js, steps)) % big_l == 0:
            count += 1
    return count


def fermat_betti(m: int, l: int) -> int:
    """Closed form b_{m-2} = (-1)^m (1 + ((1-l)^m - 1)/l) for (1, ..., 1; l)."""
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    if l < 2:
        raise UsageError(f"l must be at least 2, got {l}")
    num = (1 - l) ** m - 1
    # (1-l) = 1 mod l, so num is always divisible by l
    assert num % l == 0
    # never negative: 1 + ((l-1)^m - 1)/l for even m, ((l-1)^m + 1)/l - 1 for odd m
    return (-1) ** m * (1 + num // l)


def genus(ws: WeightSystem) -> int:
    """Genus of the orbit curve of a three-variable weight system.

    Orlik-Wagreich formula:

        g = (d^2/(w1 w2 w3) - d sum_{i<j} gcd(w_i,w_j)/(w_i w_j)
             + sum_i gcd(d,w_i)/w_i - 1) / 2

    evaluated exactly; a fractional or negative result raises
    IntegrityError (no member of the class is then quasi-smooth).
    """
    if ws.m != 3:
        raise UsageError(f"genus needs exactly three weights, got {ws.m}")
    w1, w2, w3 = ws.weights
    d, w = ws.degree, w1 * w2 * w3
    # the formula times 2 w1 w2 w3, in integers: with {i, j, k} = {1, 2, 3},
    # gcd(w_i, w_j)/(w_i w_j) = gcd(w_i, w_j) w_k / w and gcd(d, w_i)/w_i =
    # gcd(d, w_i) w_j w_k / w
    pairs = math.gcd(w1, w2) * w3 + math.gcd(w1, w3) * w2 + math.gcd(w2, w3) * w1
    singles = math.gcd(d, w1) * w2 * w3 + math.gcd(d, w2) * w1 * w3 + math.gcd(d, w3) * w1 * w2
    numerator = d * d - d * pairs + singles - w
    g, rest = divmod(numerator, 2 * w)
    if rest or g < 0:
        raise IntegrityError(
            f"genus of {ws} evaluates to {Fraction(numerator, 2 * w)}, not a non-negative integer"
        )
    return g


def torsion_order(k: int, base: WeightSystem) -> FactoredPower:
    """Order of the middle homology of the k-fold cover: k^{b_{m-2}(base)}.

    Requires the torsion hypothesis gcd(k, d) = 1 (`torsion_hypothesis`);
    the cover link is then a rational homology sphere.
    """
    if not torsion_hypothesis(k, base):
        raise UsageError(
            f"cover of {base} by k={k} is not certified a rational homology "
            f"sphere: gcd(k, d) = gcd({k}, {base.degree}) > 1"
        )
    return FactoredPower(base=k, exponent=milnor_orlik_betti(base))
