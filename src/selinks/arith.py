"""Exact integer and rational primitives used by every invariant computation.

Everything downstream is exact: integers are arbitrary precision, fractional
quantities are `fractions.Fraction`, and inequalities are decided by exact
comparison.  No floating point appears anywhere on a computation path.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, NamedTuple

from .errors import ResourceBudgetError, UsageError

__all__ = ["FactoredPower", "count_monomials"]

# the most cells count_monomials' table may have (target + 1); at the limit
# the table and its exact counts take up to about 100 MB and a few seconds,
# and past it the computation is refused rather than run out of memory
COUNT_MONOMIALS_CELL_LIMIT = 10**6

# the most table updates count_monomials may make, one per weight and cell
# (len(weights) * (target + 1)); at the limit a count takes about 3 s, and
# past it the count is refused rather than run for minutes
COUNT_MONOMIALS_WORK_LIMIT = 2 * 10**7


class _Power(NamedTuple):
    base: int
    exponent: int


class FactoredPower(_Power):
    """A power base**exponent kept factored until explicitly expanded.

    Torsion orders |H_{m-1}(L, Z)| = k^{b_{m-2}} have exponents in the
    hundreds and beyond, so the expansion is exact but only computed on
    demand.  Validated on construction; `_replace` and `_make` would skip
    the check, so nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, base: int, exponent: int) -> "FactoredPower":
        if type(base) is not int or type(exponent) is not int:
            _ints((base, exponent))
        if base < 2:
            raise UsageError(f"base must be at least 2, got {base}")
        if exponent < 0:
            raise UsageError(f"exponent must be non-negative, got {exponent}")
        return tuple.__new__(cls, (base, exponent))

    def expand(self) -> int:
        """The exact power, refused when its decimal form would pass the
        interpreter's int-to-str digit limit (`check_digits`).

        The check runs before the power is computed: past the limit the
        power can be gigabytes long, and it could not be printed anyway.
        """
        # base >= 2**(bits - 1), so the power has more than (bits - 1) * exponent bits
        least_bits = (self.base.bit_length() - 1) * self.exponent
        return _digit_checked(self, least_bits, lambda: self.base**self.exponent)

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"


def check_digits(value: int, what: object) -> int:
    """`value`, refused with ResourceBudgetError when its decimal form would
    pass the interpreter's int-to-str digit limit (`sys.get_int_max_str_digits`),
    where writing it would raise ValueError, or the default limit while that
    one is 0 (off); `what` names it in the message."""
    return _digit_checked(what, value.bit_length() - 1, lambda: value)


def _digit_checked(what: object, least_bits: int, value: Callable[[], int]) -> int:
    """value(), whose bit length passes `least_bits`, refused as in
    `check_digits`; when `least_bits` alone shows it past the limit, value()
    is not called."""
    limit, which = sys.get_int_max_str_digits(), "the interpreter's int-to-str limit"
    if not limit:  # off: the default still bounds what is built and written
        limit, which = sys.int_info.default_max_str_digits, "the default int-to-str limit"
    # 2**(3 limit) < 10**limit < 2**(4 limit): only a number between the two
    # powers of 2 is compared with 10**limit, which takes tens of microseconds
    if least_bits < 4 * limit:
        number = value()
        if number.bit_length() <= 3 * limit or abs(number) < 10**limit:
            return number
    raise ResourceBudgetError(f"{what} has more than {limit} decimal digits, {which}")


def _ints(values: Iterable) -> tuple[int, ...]:
    """The values, refused (TypeError) unless each is an int, not a bool, float or str."""
    values = tuple(values)
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
    return values


def count_monomials(
    weights: Iterable[int], target: int, *, table: bool = False
) -> int | list[int]:
    """Number of monomials of weighted degree `target`.

    Counts exponent vectors a >= 0 with sum a_i * weights_i = target, i.e.
    h^0 of O(target) on the weighted projective space of the given weights.
    One-dimensional counting table over the target value; exact and
    deterministic.  A target whose table would pass
    COUNT_MONOMIALS_CELL_LIMIT cells, or a count that would make more than
    COUNT_MONOMIALS_WORK_LIMIT table updates, raises ResourceBudgetError
    before anything is allocated.  With `table`, the whole table: entry t
    is the number of monomials of degree t, for t = 0..target.
    """
    weights = tuple(weights)
    if not weights:
        raise UsageError("count_monomials needs at least one weight")
    for w in weights:
        if w < 1:
            raise UsageError(f"weights must be positive integers, got {w}")
    if target < 0:
        raise UsageError(f"target must be non-negative, got {target}")
    if target + 1 > COUNT_MONOMIALS_CELL_LIMIT:
        check_digits(target + 1, "the cell count of a monomial table")  # the message writes it
        raise ResourceBudgetError(
            f"counting monomials of degree {target} needs {target + 1} table cells, "
            f"more than the limit of {COUNT_MONOMIALS_CELL_LIMIT}"
        )
    updates = len(weights) * (target + 1)
    if updates > COUNT_MONOMIALS_WORK_LIMIT:
        raise ResourceBudgetError(
            f"counting monomials of degree {target} in {len(weights)} weights makes "
            f"{updates} table updates, more than the limit of {COUNT_MONOMIALS_WORK_LIMIT}"
        )
    counts = [0] * (target + 1)
    counts[0] = 1
    for w in weights:
        for t in range(w, target + 1):
            counts[t] += counts[t - w]
    return counts if table else counts[target]
