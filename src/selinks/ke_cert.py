"""Existence certificates for Kähler-Einstein metrics on cover quotients.

Three exact tests, kept deliberately separate: the Fano sign condition, a
necessary inequality derived from the klt condition (useful only to rule
candidates out), and the sufficiency inequality for perturbations of
Brieskorn-Pham singularities.  Neither klt-flavored test implies the
other; a certificate always reports both, together with the exact two
sides of the decisive inequality.

A positive sufficiency verdict certifies a Sasakian-Einstein metric on the
cover link only under the genericity condition on perturbations, which is
not checked here: it holds for the unperturbed polynomial and is recorded
on every certificate as an explicit assumption.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import UsageError
from .links import CaseClass, WeightSystem, branched_cover, classify_case

__all__ = [
    "BpData",
    "BpVerdict",
    "KeCertificate",
    "HyperbolicWindow",
    "is_fano",
    "necessary_klt",
    "euclidean_k_threshold",
    "bp_data",
    "bp_sufficient_ke",
    "hyperbolic_k_window",
    "certify_cover",
]


def is_fano(k: int, base: WeightSystem) -> bool:
    """Fano sign test for the cover quotient: k(|w| - d) + d > 0.

    For |w| - d >= 0 this holds for every positive k; in the hyperbolic
    case it bounds k above by d/(d - |w|).
    """
    if k < 1:
        raise UsageError(f"k must be positive, got {k}")
    return _klt_sides(k, base)[0] > 0


def _klt_sides(k: int, base: WeightSystem) -> tuple[int, int, str]:
    """(left, least, witness): left = k(|w| - d) + d, least = min{d, k w_i}
    and the first term attaining it.  The klt inequality is left <
    m/(m-1) least."""
    d = base.degree
    left = k * (base.norm - d) + d
    kw = [k * w for w in base.weights]
    least = min(kw)
    if d <= least:
        return left, d, "d"
    return left, least, f"k*w[{kw.index(least) + 1}]"


def necessary_klt(k: int, base: WeightSystem) -> bool:
    """Necessary inequality for the klt condition on the cover quotient.

    k(|w| - d) + d < m/(m-1) * min{d, k w_i}.  Failing it rules a
    candidate out; passing it certifies nothing (it is far from
    sufficient).
    """
    if k < 1:
        raise UsageError(f"k must be positive, got {k}")
    left, least, _ = _klt_sides(k, base)
    return (base.m - 1) * left < base.m * least


def euclidean_k_threshold(base: WeightSystem) -> int:
    """Least k satisfying the necessary klt inequality on a Euclidean base.

    For |w| = d the inequality reduces to (m-1) d < m k min{w_i}.
    """
    if classify_case(base) is not CaseClass.EUCLIDEAN:
        raise UsageError(f"{base} is not Euclidean (|w| != d)")
    m = base.m
    return (m - 1) * base.degree // (m * min(base.weights)) + 1


@dataclass(frozen=True)
class BpData:
    """Arithmetic of a Brieskorn-Pham exponent vector (a_0, ..., a_m).

    cofactor_lcms[j] is C^j = lcm(a_i : i != j) and gcds[j] is
    b_j = gcd(a_j, C^j); reciprocal_sum is sum 1/a_i, exact.
    """

    exponents: tuple[int, ...]
    cofactor_lcms: tuple[int, ...]
    gcds: tuple[int, ...]
    reciprocal_sum: Fraction


@dataclass(frozen=True)
class BpVerdict:
    """Outcome of the sufficiency test, with its exact decisive quantities."""

    verdict: bool
    data: BpData
    bound: Fraction
    limiting_witness: str


def bp_data(a: Iterable[int]) -> BpData:
    a = tuple(a)
    if len(a) < 3:
        raise UsageError(f"need at least three exponents, got {a}")
    if any(ai < 2 for ai in a):
        raise UsageError(f"exponents must be at least 2, got {a}")
    cofactors = tuple(
        math.lcm(*(ai for j, ai in enumerate(a) if j != i)) for i in range(len(a))
    )
    gcds = tuple(math.gcd(ai, ci) for ai, ci in zip(a, cofactors))
    total = sum(Fraction(1, ai) for ai in a)
    return BpData(a, cofactors, gcds, total)


def bp_sufficient_ke(a: Iterable[int]) -> BpVerdict:
    """Sufficiency test for a perturbed Brieskorn-Pham cover (a_0, ..., a_m).

    Verdict is true iff both strict inequalities hold:

        1 < sum 1/a_i < 1 + m/(m-1) * min_{i,j} {1/a_i, 1/(b_i b_j)}

    with the min over all indices i and all unordered pairs i != j.  The
    left inequality is the Fano condition in this presentation; the right
    one certifies a Kähler-Einstein orbifold metric for perturbations
    satisfying the genericity condition.  The witness names the index or
    pair attaining the min.
    """
    data = bp_data(a)
    n = len(data.exponents)
    m = n - 1
    # the least of the 1/x is 1/(the greatest x); index() finds the first
    pairs = list(itertools.combinations(range(n), 2))
    b = data.gcds
    values = list(data.exponents) + [b[i] * b[j] for i, j in pairs]
    top = max(values)
    at = values.index(top)
    witness = f"1/a[{at}]" if at < n else "1/(b[{}]*b[{}])".format(*pairs[at - n])
    bound = 1 + Fraction(m, (m - 1) * top)
    verdict = 1 < data.reciprocal_sum < bound
    return BpVerdict(verdict, data, bound, witness)


class HyperbolicWindow(NamedTuple):
    """Open interval of admissible branch orders for a hyperbolic Fermat base."""

    lower: Fraction
    upper: Fraction
    solutions: tuple[int, ...]


def hyperbolic_k_window(m: int, l: int) -> HyperbolicWindow:
    """Branch orders k certifying covers of (1, ..., 1; l) with l > m.

    The Fano condition bounds k < l/(l-m) and the sufficiency inequality
    bounds k > (m-1) l^2 / ((m-1) l (l-m) + m); pairing them with k >= 2
    confines l to m+1 <= l <= 2m-1.  Solutions are the integers in the
    open interval that are coprime to l (covers sharing a factor with the
    degree are reduced away, not certified here).
    """
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    if not m + 1 <= l <= 2 * m - 1:
        raise UsageError(
            f"l must satisfy m+1 <= l <= 2m-1, got l={l} for m={m} "
            f"(admissible range {m + 1}..{2 * m - 1})"
        )
    lower = Fraction((m - 1) * l * l, (m - 1) * l * (l - m) + m)
    upper = Fraction(l, l - m)
    start = max(2, math.floor(lower) + 1)
    solutions = tuple(
        k for k in range(start, math.ceil(upper)) if k < upper and math.gcd(k, l) == 1
    )
    return HyperbolicWindow(lower, upper, solutions)


@dataclass(frozen=True)
class KeCertificate:
    """Joint verdict record for one cover.

    The necessary test and the sufficiency test live on different
    presentations and neither implies the other; both are recorded.  When
    the cover carries Brieskorn-Pham exponents, left_value/right_bound are
    the two sides of the sufficiency inequality; otherwise they are the
    sides of the necessary klt inequality.
    """

    fano: bool
    necessary_klt: bool
    bp_applicable: bool
    bp_sufficient: bool
    gc_assumed: bool
    left_value: Fraction
    right_bound: Fraction
    limiting_witness: str


def certify_cover(k: int, base: WeightSystem) -> KeCertificate:
    """Evaluate every certificate test for the k-fold cover of `base`.

    The klt sides give both the Fano sign (left > 0) and the necessary klt
    inequality ((m-1) left < m least).
    """
    cover = branched_cover(k, base)
    m = base.m
    left, least, witness = _klt_sides(k, base)
    fano, nklt = left > 0, (m - 1) * left < m * least
    if cover.bp_exponents is None:
        sufficient, left_value, right = False, Fraction(left), Fraction(m * least, m - 1)
    else:
        result = bp_sufficient_ke(cover.bp_exponents)
        sufficient, left_value, right = result.verdict, result.data.reciprocal_sum, result.bound
        witness = result.limiting_witness
    return KeCertificate(
        fano=fano,
        necessary_klt=nklt,
        bp_applicable=cover.bp_exponents is not None,
        bp_sufficient=sufficient,
        gc_assumed=True,
        left_value=left_value,
        right_bound=right,
        limiting_witness=witness,
    )
