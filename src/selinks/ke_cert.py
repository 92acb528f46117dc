"""Existence certificates for Kähler-Einstein metrics on cover quotients.

Three exact tests: the Fano sign condition, a necessary inequality derived
from the klt condition (useful only to rule candidates out), and the
sufficiency inequality for perturbations of Brieskorn-Pham singularities.
`certify_cover` evaluates all three on one cover.  Neither klt-flavored
test implies the other; its certificate always reports both, together
with the exact two sides of the decisive inequality.

A positive sufficiency verdict certifies a Sasakian-Einstein metric on the
cover link only under the genericity condition on perturbations, which is
not checked here: it holds for the unperturbed polynomial and is recorded
on every certificate as an explicit assumption.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import UsageError
from .links import CaseClass, WeightSystem, classify_case, torsion_hypothesis

__all__ = [
    "BpVerdict",
    "KeCertificate",
    "HyperbolicWindow",
    "euclidean_k_threshold",
    "bp_sufficient_ke",
    "hyperbolic_k_window",
    "certify_cover",
]


def euclidean_k_threshold(base: WeightSystem) -> int:
    """Least k satisfying the necessary klt inequality on a Euclidean base.

    For |w| = d the inequality reduces to (m-1) d < m k min{w_i}.
    """
    if classify_case(base) is not CaseClass.EUCLIDEAN:
        raise UsageError(f"{base} is not Euclidean (|w| != d)")
    m = base.m
    return (m - 1) * base.degree // (m * min(base.weights)) + 1


class BpVerdict(NamedTuple):
    """The sufficiency test on an exponent vector (a_0, ..., a_m), with its
    exact decisive quantities.

    cofactor_lcms[j] is C^j = lcm(a_i : i != j) and gcds[j] is
    b_j = gcd(a_j, C^j); reciprocal_sum is sum 1/a_i, bound the right side
    of the inequality and limiting_witness the term that sets it.
    `selinks certify` prints the fields in this order.
    """

    exponents: tuple[int, ...]
    reciprocal_sum: Fraction
    bound: Fraction
    cofactor_lcms: tuple[int, ...]
    gcds: tuple[int, ...]
    limiting_witness: str
    verdict: bool


def _bp_terms(a: tuple[int, ...], shift: int = 0) -> tuple[tuple, tuple, int, str]:
    """(C, b, top, witness): C^j = lcm(a_i : i != j) from the lcms before and
    after j, b_j = gcd(a_j, C^j), and the greatest a_i or b_i b_j (i < j) with
    the first term attaining it, the a_i first, indices raised by `shift`.
    The greatest b_i b_j is b_p b_q, p the first index of the greatest b and
    q the first other index of the greatest remaining b; the first pair in
    (i, j) order attaining it is (min(p, q), max(p, q))."""
    after = [*itertools.accumulate(reversed(a), math.lcm, initial=1)][-2::-1]
    cofactors = tuple(map(math.lcm, itertools.accumulate(a, math.lcm, initial=1), after))
    b = tuple(map(math.gcd, a, cofactors))
    p = max(range(len(b)), key=b.__getitem__)
    q = max((i for i in range(len(b)) if i != p), key=b.__getitem__)
    top = max(a)
    if top >= b[p] * b[q]:
        return cofactors, b, top, f"1/a[{a.index(top) + shift}]"
    return cofactors, b, b[p] * b[q], f"1/(b[{min(p, q) + shift}]*b[{max(p, q) + shift}])"


def bp_sufficient_ke(a: Iterable[int]) -> BpVerdict:
    """Sufficiency test for a perturbed Brieskorn-Pham cover (a_0, ..., a_m).

    Verdict is true iff both strict inequalities hold:

        1 < sum 1/a_i < 1 + m/(m-1) * min_{i,j} {1/a_i, 1/(b_i b_j)}

    with the min over all indices i and all unordered pairs i != j.  The
    left inequality is the Fano condition in this presentation; the right
    one certifies a Kähler-Einstein orbifold metric for perturbations
    satisfying the genericity condition.  The witness names the index or
    pair attaining the min.  This is the literal test on any exponent
    vector; certificates of covers use it solved in k (`certify_cover`).
    """
    a = tuple(a)
    if len(a) < 3:
        raise UsageError(f"need at least three exponents, got {a}")
    if any(ai < 2 for ai in a):
        raise UsageError(f"exponents must be at least 2, got {a}")
    m = len(a) - 1
    cofactors, gcds, top, witness = _bp_terms(a)
    total = sum(Fraction(1, ai) for ai in a)
    # the least of the 1/x is 1/(the greatest x)
    bound = 1 + Fraction(m, (m - 1) * top)
    return BpVerdict(a, total, bound, cofactors, gcds, witness, 1 < total < bound)


class _KRule(NamedTuple):
    """The sufficiency inequality on the covers z_0^k + f of one base, solved in k.

    The cover exponents are (k, a_1, ..., a_m) with a_i = d/w_i.  For
    gcd(k, d) = 1, b_0 = 1 and each b_i (i >= 1) is free of k, so the
    inequality reads 1 < S + 1/k < 1 + m/((m-1) max(k, T)) with S and T
    below, and holds exactly for the k in the open interval (lower, upper).
    """

    m: int
    reciprocal_sum: Fraction  # S = sum 1/a_i = |w|/d
    top: int  # T, the greatest a_i or b_i b_j over base indices
    witness: str  # the first term attaining T, in cover indices
    bound: Fraction  # 1 + m/((m-1) T), the right bound for k < T
    lower: Fraction  # equal to upper when no k passes
    upper: Optional[Fraction]  # None: no upper bound

    def sides(self, k: int) -> tuple[Fraction, Fraction, str]:
        """S + 1/k, the right bound and the term attaining it; k is index 0,
        so it is the witness whenever k >= T.  One Fraction each."""
        p, q = self.reciprocal_sum.as_integer_ratio()
        left = Fraction(p * k + q, q * k)
        if k < self.top:
            return left, self.bound, self.witness
        n = (self.m - 1) * k
        return left, Fraction(n + self.m, n), "1/a[0]"


def _sufficiency_in_k(base: WeightSystem) -> Optional[_KRule]:
    """The solved sufficiency inequality of `base`, or None unless every w_i
    is a proper divisor of d (the covers are then not Brieskorn-Pham).

    For k <= T the right inequality is 1/k < D = 1 + m/((m-1) T) - S, so
    k > lower = 1/D, and no k passes when D <= 0 (then S > 1).  For k >= T
    it is S - 1 < 1/((m-1) k), which bounds k < 1/((m-1)(S-1)) when S > 1;
    the left one bounds k < 1/(1-S) when S < 1.  Both sides agree at k = T,
    so the passing k form one open interval.
    """
    a = base.bp_exponents
    if a is None:
        return None
    m = base.m
    _, _, top, witness = _bp_terms(a, shift=1)
    s = Fraction(base.norm, base.degree)
    if s < 1:
        upper = 1 / (1 - s)
    elif s > 1:
        upper = 1 / ((m - 1) * (s - 1))
    else:
        upper = None
    bound = 1 + Fraction(m, (m - 1) * top)
    lower = 1 / (bound - s) if bound > s else upper
    return _KRule(m, s, top, witness, bound, lower, upper)


class _CoverRule(NamedTuple):
    """Both certificate inequalities on the covers z_0^k + f of one base,
    solved once for every k: the klt line left = k(|w| - d) + d against
    least = min(d, k w_min), and `bp`, the sufficiency inequality solved in
    k (`_sufficiency_in_k`), None unless the covers are Brieskorn-Pham."""

    m: int
    slope: int  # |w| - d
    degree: int  # d, the intercept
    least_weight: int  # w_min
    weight_witness: str  # k*w[i], i the first index of w_min
    right_at_degree: Fraction  # m d/(m-1), the klt right side once least = d
    bp: Optional[_KRule]


def _cover_rule(base: WeightSystem) -> _CoverRule:
    """The certificate inequalities of `base`, solved in k (`_CoverRule`)."""
    m, d, w = base.m, base.degree, min(base.weights)
    witness = f"k*w[{base.weights.index(w) + 1}]"
    bp = _sufficiency_in_k(base)
    return _CoverRule(m, base.norm - d, d, w, witness, Fraction(m * d, m - 1), bp)


class HyperbolicWindow(NamedTuple):
    """Open interval of admissible branch orders for a hyperbolic Fermat base."""

    lower: Fraction
    upper: Fraction
    solutions: tuple[int, ...]


def hyperbolic_k_window(m: int, l: int) -> HyperbolicWindow:
    """Branch orders k certifying covers of (1, ..., 1; l) with l > m.

    The interval is `_sufficiency_in_k` on the base: the Fano condition
    bounds k < l/(l-m) and the sufficiency inequality bounds
    k > (m-1) l^2 / ((m-1) l (l-m) + m); pairing them with k >= 2 confines
    l to m+1 <= l <= 2m-1.  Solutions are the integers in the open
    interval that are coprime to l (covers sharing a factor with the
    degree are reduced away, not certified here).
    """
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    if not m + 1 <= l <= 2 * m - 1:
        raise UsageError(
            f"l must satisfy m+1 <= l <= 2m-1, got l={l} for m={m} "
            f"(admissible range {m + 1}..{2 * m - 1})"
        )
    base = WeightSystem((1,) * m, l)
    rule = _sufficiency_in_k(base)
    solutions = tuple(
        k
        for k in range(2, math.ceil(rule.upper))  # every k < upper
        if rule.lower < k and torsion_hypothesis(k, base)
    )
    return HyperbolicWindow(rule.lower, rule.upper, solutions)


class KeCertificate(NamedTuple):
    """Joint verdict record for one cover.

    The necessary test and the sufficiency test live on different
    presentations and neither implies the other; both are recorded.  When
    the cover carries Brieskorn-Pham exponents, left_value/right_bound are
    the two sides of the sufficiency inequality; otherwise they are the
    sides of the necessary klt inequality.  The Fano sign and the
    sufficiency verdict are read off the two sides.  Every certificate
    assumes the genericity condition (`gc_assumed`)."""

    necessary_klt: bool
    bp_applicable: bool
    left_value: Fraction
    right_bound: Fraction
    limiting_witness: str
    gc_assumed = True  # a class constant, not a field

    @property
    def fano(self) -> bool:
        # k(|w| - d) + d > 0 iff |w|/d + 1/k > 1 (divide by kd): the left side on a BP cover
        p, q = self.left_value.as_integer_ratio()
        return p > (q if self.bp_applicable else 0)

    @property
    def bp_sufficient(self) -> bool:
        # 1 < left < right, on numerators and (positive) denominators
        if not self.bp_applicable:
            return self.bp_applicable
        (p, q), (r, s) = self.left_value.as_integer_ratio(), self.right_bound.as_integer_ratio()
        return q < p and p * s < r * q


def certify_cover(
    k: int, base: WeightSystem, *, rule: Optional[_CoverRule] = None
) -> KeCertificate:
    """Evaluate every certificate test for the k-fold cover of `base`.

    The klt sides decide the necessary klt inequality.  A Brieskorn-Pham
    cover (every w_i a proper divisor of d, gcd(k, d) = 1) records the
    sides of the sufficiency inequality solved in k, equal to those of the
    literal `bp_sufficient_ke` on the cover exponents; any other cover
    records the klt sides.  `rule` is `_cover_rule(base)` when the caller
    has solved it once for many k; without it the call solves it.  Per k
    the call does integer work and builds at most two Fractions.
    """
    if k < 2:
        raise UsageError(f"branch order k must be at least 2, got {k}")
    if rule is None:
        rule = _cover_rule(base)
    m, d = rule.m, rule.degree
    left, least = k * rule.slope + d, k * rule.least_weight
    nklt = (m - 1) * left < m * (least if least < d else d)
    # gcd(k, d) = 1 is the torsion hypothesis (`links.torsion_hypothesis`)
    if rule.bp is not None and math.gcd(k, d) == 1:
        return KeCertificate(nklt, True, *rule.bp.sides(k))
    if least >= d:
        return KeCertificate(nklt, False, Fraction(left), rule.right_at_degree, "d")
    right = Fraction(m * least, m - 1)
    return KeCertificate(nklt, False, Fraction(left), right, rule.weight_witness)
