"""Benchmark-local reference computations for the output checks.

These deliberately share no code with the library's kernels: later changes
replace those kernels (grouped Betti sums, per-base monomial counts,
congruence enumeration), and their outputs are checked against these slow,
literal definitions.  Everything is exact integer or rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def betti_subset_sum(weights: tuple[int, ...], degree: int) -> Fraction:
    """Milnor-Orlik middle Betti number as the literal 2^m subset sum.

    Sum over index subsets S of (-1)^(m-|S|) prod u_S / (prod v_S lcm u_S),
    with u_i/v_i = d/w_i in lowest terms.  Returned unrounded, so a caller
    can tell an integer from a fraction.
    """
    ratios = [(degree // math.gcd(degree, w), w // math.gcd(degree, w)) for w in weights]
    m = len(ratios)
    total = Fraction(0)
    for size in range(m + 1):
        sign = -1 if (m - size) % 2 else 1
        for subset in itertools.combinations(ratios, size):
            us = [u for u, _ in subset]
            vs = [v for _, v in subset]
            total += sign * Fraction(math.prod(us), math.prod(vs) * math.lcm(*us))
    return total


def monomial_count(weights: tuple[int, ...], target: int) -> int:
    """Number of exponent vectors a >= 0 with sum a_i w_i = target.

    Peels off the largest weight first and memoises on (variable, remaining
    degree); a different recursion from the library's counting table.
    """
    ws = sorted(weights, reverse=True)
    last = len(ws) - 1
    memo: dict[tuple[int, int], int] = {}

    def count(i: int, t: int) -> int:
        if i == last:
            return 1 if t % ws[i] == 0 else 0
        key = (i, t)
        if key not in memo:
            memo[key] = sum(count(i + 1, t - j * ws[i]) for j in range(t // ws[i] + 1))
        return memo[key]

    return count(0, target)


def cover_system(k: int, weights: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], int]:
    """Weights and degree of z_0^k + f: (d/g, (k/g) w; lcm(k, d)), g = gcd(k, d)."""
    g = math.gcd(k, degree)
    return (degree // g,) + tuple(k // g * w for w in weights), k * degree // g


def quasi_smooth(weights: tuple[int, ...], degree: int) -> bool:
    """Subset criterion for a quasi-smooth generic member, checked literally.

    For every nonempty index set I: some degree-d monomial lives in the
    I-variables, or at least |I| distinct outside variables z_j admit a
    monomial of degree d - w_j in the I-variables.
    """
    m = len(weights)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            inside = tuple(weights[i] for i in subset)
            if monomial_count(inside, degree):
                continue
            hits = sum(
                1
                for j in range(m)
                if j not in subset
                and degree >= weights[j]
                and monomial_count(inside, degree - weights[j])
            )
            if hits < size:
                return False
    return True


# closed forms (the library exposes the same formulas as fermat_betti,
# fermat_cy_moduli and hyperbolic_moduli; they are restated here so the
# checks do not trust the code under test)


def fermat_betti(m: int, l: int) -> int:
    """b_{m-2} of the Fermat base (1, ..., 1; l): (-1)^m (1 + ((1-l)^m - 1)/l)."""
    return (-1) ** m * (1 + ((1 - l) ** m - 1) // l)


def fermat_cy_moduli(m: int) -> int:
    """Complex moduli of covers of (1, ..., 1; m): C(2m-1, m) - m^2."""
    return math.comb(2 * m - 1, m) - m * m


def hyperbolic_moduli(m: int, l: int) -> int:
    """Complex moduli of covers of (1, ..., 1; l): C(m+l-1, l) - m^2."""
    return math.comb(m + l - 1, l) - m * m
