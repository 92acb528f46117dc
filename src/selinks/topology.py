"""Topological invariants of links: Betti numbers, torsion orders, genus.

The middle Betti number of the link of a quasi-smooth weighted homogeneous
polynomial comes from the Milnor-Orlik inclusion-exclusion formula over
index subsets; in three variables it specializes to twice the genus of the
orbit curve (Orlik-Wagreich).  The k-fold branched cover of such a link,
for k coprime to every reduced numerator u_i of d/w_i, is a rational
homology sphere whose middle homology has order k^{b_{m-2}}.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .arith import FactoredPower, lcm_many, reduced_fraction
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .links import WeightSystem, torsion_obstruction

__all__ = [
    "ReducedRatioVector",
    "TorsionOrder",
    "reduced_ratios",
    "milnor_orlik_betti",
    "betti_bp_oracle",
    "fermat_cy_betti",
    "fermat_betti",
    "genus",
    "genus_one_criterion",
    "torsion_order",
]

ReducedRatioVector = tuple[tuple[int, int], ...]


# the torsion order |H_{m-1}(L, Z)| = k^{b_{m-2}} is a factored power
TorsionOrder = FactoredPower


def reduced_ratios(ws: WeightSystem) -> ReducedRatioVector:
    """The pairs (u_i, v_i) with u_i/v_i = d/w_i in lowest terms."""
    return tuple(reduced_fraction(ws.degree, w) for w in ws.weights)


def milnor_orlik_betti(ws: WeightSystem) -> int:
    """Middle Betti number b_{m-2} of the link, by the Milnor-Orlik formula.

    Sums (-1)^(m-s) u_{i_1}...u_{i_s} / (v_{i_1}...v_{i_s} lcm(u_{i_1},...))
    over all 2^m index subsets; the empty subset contributes (-1)^m (empty
    product and empty lcm both 1).  Accumulation is exact rational
    arithmetic.  For a system with an isolated singularity the total is a
    non-negative integer; anything else raises IntegrityError rather than
    being rounded, so integrality doubles as an input-validity check.
    """
    ratios = reduced_ratios(ws)
    m = ws.m
    total = Fraction(0)
    for mask in range(1 << m):
        prod_u = 1
        prod_v = 1
        lcm_u = 1
        size = 0
        for i in range(m):
            if mask >> i & 1:
                u, v = ratios[i]
                prod_u *= u
                prod_v *= v
                lcm_u = lcm_u * u // math.gcd(lcm_u, u)
                size += 1
        term = Fraction(prod_u, prod_v * lcm_u)
        total += term if (m - size) % 2 == 0 else -term
    if total.denominator != 1 or total < 0:
        raise IntegrityError(
            f"b_{m - 2} of {ws} evaluates to {total}, which is not a "
            "non-negative integer; the system has no quasi-smooth member"
        )
    return int(total)


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
    big_l = lcm_many(a)
    steps = [big_l // ai for ai in a]
    count = 0
    for js in itertools.product(*(range(1, ai) for ai in a)):
        if sum(j * s for j, s in zip(js, steps)) % big_l == 0:
            count += 1
    return count


def fermat_cy_betti(m: int) -> int:
    """Closed form for the Fermat Calabi-Yau link (1, ..., 1; m) in m variables."""
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    return fermat_betti(m, m)


def fermat_betti(m: int, l: int) -> int:
    """Closed form b_{m-2} = (-1)^m (1 + ((1-l)^m - 1)/l) for (1, ..., 1; l)."""
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    if l < 2:
        raise UsageError(f"l must be at least 2, got {l}")
    num = (1 - l) ** m - 1
    # (1-l) = 1 mod l, so num is always divisible by l
    assert num % l == 0
    value = (-1) ** m * (1 + num // l)
    if value < 0:
        raise IntegrityError(f"closed form gave negative Betti number {value}")
    return value


def genus(ws: WeightSystem) -> int:
    """Genus of the orbit curve of a three-variable weight system.

    Orlik-Wagreich formula:

        g = (d^2/(w1 w2 w3) - d sum_{i<j} gcd(w_i,w_j)/(w_i w_j)
             + sum_i gcd(d,w_i)/w_i - 1) / 2

    evaluated exactly; a fractional or negative result raises
    IntegrityError (the system then has no quasi-smooth member).
    """
    if ws.m != 3:
        raise UsageError(f"genus needs exactly three weights, got {ws.m}")
    w1, w2, w3 = ws.weights
    d = ws.degree
    pair_sum = sum(
        Fraction(math.gcd(wi, wj), wi * wj)
        for wi, wj in itertools.combinations(ws.weights, 2)
    )
    single_sum = sum(Fraction(math.gcd(d, wi), wi) for wi in ws.weights)
    g = (Fraction(d * d, w1 * w2 * w3) - d * pair_sum + single_sum - 1) / 2
    if g.denominator != 1 or g < 0:
        raise IntegrityError(
            f"genus of {ws} evaluates to {g}, not a non-negative integer"
        )
    return int(g)


def genus_one_criterion(ws: WeightSystem) -> bool:
    """Sufficient (not necessary) test for genus 1 in three variables.

    True iff |w| = d, every weight divides d, and the weights are pairwise
    coprime.
    """
    if ws.m != 3:
        raise UsageError(f"criterion needs exactly three weights, got {ws.m}")
    if ws.norm != ws.degree:
        return False
    if any(ws.degree % w for w in ws.weights):
        return False
    return all(
        math.gcd(wi, wj) == 1 for wi, wj in itertools.combinations(ws.weights, 2)
    )


def torsion_order(k: int, base: WeightSystem) -> FactoredPower:
    """Order of the middle homology of the k-fold cover: k^{b_{m-2}(base)}.

    Requires gcd(k, u_i) = 1 for every reduced numerator of d/w_i; the
    cover link is then a rational homology sphere.
    """
    obstruction = torsion_obstruction(k, base)
    if obstruction is not None:
        i, u = obstruction
        raise UsageError(
            f"cover of {base} by k={k} is not certified a rational homology "
            f"sphere: gcd(k, u_{i + 1}) > 1 for u_{i + 1} = {u}"
        )
    return FactoredPower(base=k, exponent=milnor_orlik_betti(base))
