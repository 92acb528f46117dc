"""Exact integer and rational primitives used by every invariant computation.

Everything downstream is exact: integers are arbitrary precision, fractional
quantities are `fractions.Fraction`, and inequalities are decided by exact
comparison.  No floating point appears anywhere on a computation path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ResourceBudgetError, UsageError

# all fractional quantities in this package are plain stdlib Fractions,
# which already enforce lowest terms and a positive denominator
Rational = Fraction

__all__ = [
    "Rational",
    "FactoredPower",
    "gcd_many",
    "lcm_many",
    "reduced_fraction",
    "binomial",
    "count_monomials",
]


@dataclass(frozen=True)
class FactoredPower:
    """A power base**exponent kept factored until explicitly expanded.

    Torsion orders |H_{m-1}(L, Z)| = k^{b_{m-2}} have exponents in the
    hundreds and beyond, so the expansion is exact but only computed on
    demand.
    """

    base: int
    exponent: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise UsageError(f"base must be at least 2, got {self.base}")
        if self.exponent < 0:
            raise UsageError(f"exponent must be non-negative, got {self.exponent}")

    def expand(self) -> int:
        """The exact power, refused when its decimal form would pass the
        interpreter's int-to-str digit limit (`sys.get_int_max_str_digits`).

        The check runs before the power is computed: past the limit the
        power can be gigabytes long, and it could not be printed anyway.
        """
        limit = sys.get_int_max_str_digits()
        if not limit:
            return self.base**self.exponent
        cap = 10**limit  # the least integer with limit + 1 digits
        # base >= 2**(bits - 1): past this bound the power reaches the cap
        if (self.base.bit_length() - 1) * self.exponent < cap.bit_length():
            value = self.base**self.exponent
            if value < cap:
                return value
        raise ResourceBudgetError(
            f"{self} has more than {limit} decimal digits, the interpreter's "
            "int-to-str limit"
        )

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"


def _check_positive(xs: Sequence[int], what: str) -> None:
    for x in xs:
        if x < 1:
            raise UsageError(f"{what} must be positive integers, got {x}")


def gcd_many(xs: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty collection of positive integers."""
    xs = tuple(xs)
    if not xs:
        raise UsageError("gcd of an empty collection is undefined")
    _check_positive(xs, "gcd arguments")
    return math.gcd(*xs)


def lcm_many(xs: Iterable[int]) -> int:
    """Least common multiple; empty input gives 1 (empty-product convention).

    The convention matters: the empty index subset in the Betti number
    formula contributes an empty product divided by an empty lcm, and both
    must be 1 for the closed-form checks to come out right.
    """
    xs = tuple(xs)
    _check_positive(xs, "lcm arguments")
    return math.lcm(*xs)


def reduced_fraction(d: int, w: int) -> tuple[int, int]:
    """Write d/w in lowest terms, returning the coprime pair (u, v)."""
    if d < 1 or w < 1:
        raise UsageError(f"reduced_fraction needs positive integers, got ({d}, {w})")
    g = math.gcd(d, w)
    return d // g, w // g


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient; zero when r exceeds n."""
    if n < 0 or r < 0:
        raise UsageError(f"binomial needs non-negative arguments, got ({n}, {r})")
    return math.comb(n, r)


def count_monomials(weights: Iterable[int], target: int) -> int:
    """Number of monomials of weighted degree `target`.

    Counts exponent vectors a >= 0 with sum a_i * weights_i = target, i.e.
    h^0 of O(target) on the weighted projective space of the given weights.
    One-dimensional counting table over the target value; exact and
    deterministic.
    """
    weights = tuple(weights)
    if not weights:
        raise UsageError("count_monomials needs at least one weight")
    _check_positive(weights, "weights")
    if target < 0:
        raise UsageError(f"target must be non-negative, got {target}")
    table = [0] * (target + 1)
    table[0] = 1
    for w in weights:
        for t in range(w, target + 1):
            table[t] += table[t - w]
    return table[target]
