"""Weight systems, their links, and the cyclic branched-cover construction.

A weight system (w_1, ..., w_m; d) stands for the class of weighted
homogeneous polynomials f(z_1, ..., z_m) with f(t^{w_i} z_i) = t^d f(z).
The link of f is the intersection of {f = 0} with a small sphere about the
origin.  Adjoining a branch variable, z_0^k + f, yields a k-fold cyclic
cover of the sphere branched over the link of f; this module computes the
cover's weights and degree and decides when a generic member of a weight
class has an isolated singularity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .arith import COUNT_MONOMIALS_CELL_LIMIT
from .errors import ResourceBudgetError, UsageError

# the most bitset cells the subset walk of `quasi_smooth_generic` may trace:
# its subsets of two or more non-pointing indices, each with d + 1 cells; at
# the limit the walk takes about 1.5 s, and past it the test is refused
QUASI_SMOOTH_WALK_CELL_LIMIT = 10**9

__all__ = [
    "WeightSystem",
    "CaseClass",
    "CoverData",
    "classify_case",
    "branched_cover",
    "quasi_smooth_generic",
    "torsion_hypothesis",
]


@dataclass(frozen=True)
class WeightSystem:
    """A weight vector together with a weighted-homogeneous degree.

    Systems are reduced on construction: g = gcd(d, w_1, ..., w_m) is
    divided out, so (2,2,2;6) *is* (1,1,1;3).  Both present the same
    polynomials and the same link, and each class has one representative.
    """

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        ws = tuple(self.weights)
        d = self.degree
        if len(ws) < 2:
            raise UsageError(f"a weight system needs at least two weights, got {ws}")
        try:
            g = math.gcd(d, *ws)
        except TypeError:
            raise UsageError(f"weights and degree must be integers, got {ws} and {d!r}") from None
        if min(ws) < 1:
            raise UsageError(f"weights must be positive, got {ws}")
        if d < 1:
            raise UsageError(f"degree must be positive, got {d}")
        if g > 1:
            ws = tuple(w // g for w in ws)
            object.__setattr__(self, "degree", d // g)
        object.__setattr__(self, "weights", ws)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def norm(self) -> int:
        return sum(self.weights)

    @property
    def bp_exponents(self) -> Optional[tuple[int, ...]]:
        """(d/w_1, ..., d/w_m) when every weight is a proper divisor of d,
        the exponents of the Brieskorn-Pham member; otherwise None (a
        weight equal to d is a linear term, not an exponent)."""
        d = self.degree
        if all(w < d and d % w == 0 for w in self.weights):
            return tuple(d // w for w in self.weights)
        return None

    def canonical(self) -> "WeightSystem":
        """Weights sorted ascending; used for enumeration and record keys."""
        return WeightSystem(tuple(sorted(self.weights)), self.degree)

    @classmethod
    def parse(cls, text: str) -> "WeightSystem":
        """Parse the tabular form ``w1,...,wm;d``."""
        parts = text.strip().split(";")
        if len(parts) != 2:
            raise UsageError(f"expected 'w1,...,wm;d', got {text!r}")
        try:
            weights = tuple(int(tok) for tok in parts[0].split(","))
            degree = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"malformed integer in {text!r}: {exc}") from None
        return cls(weights, degree)

    def __str__(self) -> str:
        return "(" + ",".join(str(w) for w in self.weights) + f";{self.degree})"


class CaseClass(Enum):
    """Sign of |w| - d: the base link's geometry type."""

    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


def classify_case(ws: WeightSystem) -> CaseClass:
    diff = ws.norm - ws.degree
    if diff > 0:
        return CaseClass.SPHERICAL
    if diff == 0:
        return CaseClass.EUCLIDEAN
    return CaseClass.HYPERBOLIC


@dataclass(frozen=True)
class CoverData:
    """A k-fold branched cover of the sphere over the link of `base`.

    `cover` is the weight system of z_0^k + f.  When every base weight is
    a proper divisor of the base degree (`WeightSystem.bp_exponents`) and
    gcd(k, d) = 1, the cover is the class of a Brieskorn-Pham polynomial
    and `bp_exponents` holds (a_0, ..., a_m) with a_0 = k and
    a_i = d / w_i >= 2.  Covers with gcd(k, d) > 1 are representable; whether a
    cover is a rational homology sphere is `torsion_hypothesis`.
    """

    k: int
    base: WeightSystem
    cover: WeightSystem
    bp_exponents: Optional[tuple[int, ...]]


def branched_cover(k: int, base: WeightSystem) -> CoverData:
    """Weights and degree of the k-fold cover z_0^k + f(z_1, ..., z_m).

    The cover has degree lcm(k, d) and weights (d/g, (k/g) w) with
    g = gcd(k, d).  The linear case k = 1 is a hyperplane section, not a
    cover, and is rejected.
    """
    if k < 2:
        raise UsageError(f"branch order k must be at least 2, got {k}")
    d = base.degree
    g = math.gcd(k, d)
    cover = WeightSystem(
        (d // g,) + tuple(k // g * w for w in base.weights), math.lcm(k, d)
    )
    bp = base.bp_exponents if g == 1 else None
    if bp is not None:
        bp = (k,) + bp
    return CoverData(k=k, base=base, cover=cover, bp_exponents=bp)


def _reachable_degrees(weights: tuple[int, ...], target: int) -> int:
    """Bitset of weighted degrees <= target attainable by the given weights.

    The bitset has target + 1 cells, one per degree, as the table of
    `count_monomials` has; past the same COUNT_MONOMIALS_CELL_LIMIT it
    raises ResourceBudgetError before anything is allocated.
    """
    if target + 1 > COUNT_MONOMIALS_CELL_LIMIT:
        raise ResourceBudgetError(
            f"tracing monomial degrees up to {target} needs {target + 1} bitset cells, "
            f"more than the limit of {COUNT_MONOMIALS_CELL_LIMIT}"
        )
    mask = (1 << (target + 1)) - 1
    bits = 1
    for w in weights:
        # close under repeated addition of w by doubling the shift
        shift = w
        while shift <= target:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def _has_monomial(weights: tuple[int, ...], target: int) -> bool:
    """Whether some monomial in the given variables has weighted degree target."""
    if target == 0:
        return True
    if len(weights) == 1:
        return target % weights[0] == 0
    return bool(_reachable_degrees(weights, target) >> target & 1)


def quasi_smooth_generic(ws: WeightSystem) -> bool:
    """Whether a generic member of the weight class is quasi-smooth.

    Combinatorial subset criterion: for every nonempty index set I either
    (a) some monomial of degree d is supported inside I, or (b) there are
    |I| monomials of degree d of the form (monomial in I-variables) * z_j
    with the outside indices j pairwise distinct.  Quasi-smoothness of a
    generic member is equivalent to an isolated singularity at the origin
    for m >= 3.  The singleton tests come first: they are pure modular
    arithmetic and reject most systems before any counting happens.  If
    w_i | d, the monomial z_i^{d/w_i} satisfies (a) for every I containing
    i, so only the subsets of J = {i : w_i does not divide d} are tested
    further (the pointer view of Kreuzer-Skarke).  A degree past the
    bitset budget of `_reachable_degrees`, or a walk over more than
    QUASI_SMOOTH_WALK_CELL_LIMIT cells (the 2^|J| - |J| - 1 subsets of J
    with two or more indices, d + 1 cells each), raises ResourceBudgetError
    before the walk starts.
    """
    w = ws.weights
    d = ws.degree
    m = len(w)
    # singletons: (a) w_i | d, or (b) some other variable j has w_i | d - w_j
    for i in range(m):
        if d % w[i] == 0:
            continue
        if any(j != i and d >= w[j] and (d - w[j]) % w[i] == 0 for j in range(m)):
            continue
        return False
    non_pointing = [i for i in range(m) if d % w[i]]
    subsets = 2 ** len(non_pointing) - len(non_pointing) - 1
    if subsets * (d + 1) > QUASI_SMOOTH_WALK_CELL_LIMIT:
        raise ResourceBudgetError(
            f"the quasi-smoothness test of {ws} walks {subsets} index subsets of "
            f"{d + 1} bitset cells each, more than the limit of "
            f"{QUASI_SMOOTH_WALK_CELL_LIMIT} cells"
        )
    for size in range(2, len(non_pointing) + 1):
        for subset in itertools.combinations(non_pointing, size):
            wi = tuple(w[i] for i in subset)
            if _has_monomial(wi, d):
                continue
            outside = [j for j in range(m) if j not in subset]
            hits = sum(1 for j in outside if d >= w[j] and _has_monomial(wi, d - w[j]))
            if hits >= size:
                continue
            return False
    return True


def torsion_hypothesis(k: int, ws: WeightSystem) -> bool:
    """Whether the k-fold cover of `ws` is a rational homology sphere.

    The hypothesis is gcd(k, u_i) = 1 for every u_i / v_i = d / w_i in
    lowest terms.  The lcm of the u_i is d / gcd(d, w_1, ..., w_m), which
    is d on a reduced system, so the hypothesis is exactly gcd(k, d) = 1.
    """
    if k < 2:
        raise UsageError(f"branch order k must be at least 2, got {k}")
    return math.gcd(k, ws.degree) == 1
