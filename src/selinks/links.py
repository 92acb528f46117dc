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

from .arith import reduced_fraction
from .errors import IntegrityError, UsageError

__all__ = [
    "WeightSystem",
    "CaseClass",
    "CoverData",
    "classify_case",
    "branched_cover",
    "quasi_smooth_generic",
    "torsion_hypothesis",
    "torsion_obstruction",
    "normalize_cover",
]


@dataclass(frozen=True)
class WeightSystem:
    """A weight vector together with a weighted-homogeneous degree."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) < 2:
            raise UsageError(f"a weight system needs at least two weights, got {ws}")
        for w in ws:
            if w < 1:
                raise UsageError(f"weights must be positive, got {ws}")
        if self.degree < 1:
            raise UsageError(f"degree must be positive, got {self.degree}")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def norm(self) -> int:
        return sum(self.weights)

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
    a proper divisor of the base degree and gcd(k, d) = 1, the cover is the
    class of a Brieskorn-Pham polynomial and `bp_exponents` holds
    (a_0, ..., a_m) with a_0 = k and a_i = d / w_i >= 2.  A weight equal to
    d is a linear term, not a Brieskorn-Pham exponent, so such a cover
    carries none.  Covers with gcd(k, d) > 1 are representable but flagged
    via `coprime`; see `normalize_cover`.
    """

    k: int
    base: WeightSystem
    cover: WeightSystem
    bp_exponents: Optional[tuple[int, ...]]
    coprime: bool


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
    bp = None
    if g == 1 and all(w < d and d % w == 0 for w in base.weights):
        bp = (k,) + tuple(d // w for w in base.weights)
    return CoverData(k=k, base=base, cover=cover, bp_exponents=bp, coprime=(g == 1))


def _reachable_degrees(weights: tuple[int, ...], target: int) -> int:
    """Bitset of weighted degrees <= target attainable by the given weights."""
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
    for m >= 3.  Subsets are visited smallest first: the singleton tests
    are pure modular arithmetic and reject most systems before any counting
    happens.
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
    for size in range(2, m + 1):
        for subset in itertools.combinations(range(m), size):
            wi = tuple(w[i] for i in subset)
            if _has_monomial(wi, d):
                continue
            outside = [j for j in range(m) if j not in subset]
            hits = sum(1 for j in outside if d >= w[j] and _has_monomial(wi, d - w[j]))
            if hits >= size:
                continue
            return False
    return True


def torsion_obstruction(k: int, ws: WeightSystem) -> Optional[tuple[int, int]]:
    """First (index, u_i) with gcd(k, u_i) > 1, or None when none exists.

    The u_i are the numerators of d/w_i in lowest terms; gcd(k, u_i) = 1 for
    all i is the hypothesis under which the k-fold cover is a rational
    homology sphere with torsion order k^{b_{m-2}}.
    """
    if k < 2:
        raise UsageError(f"branch order k must be at least 2, got {k}")
    for i, w in enumerate(ws.weights):
        u, _ = reduced_fraction(ws.degree, w)
        if math.gcd(k, u) != 1:
            return i, u
    return None


def torsion_hypothesis(k: int, ws: WeightSystem) -> bool:
    """gcd(k, u_i) = 1 for every reduced ratio u_i / v_i = d / w_i."""
    return torsion_obstruction(k, ws) is None


def normalize_cover(k: int, base: WeightSystem) -> tuple[int, WeightSystem]:
    """Divide common factors of k and d out of the weights.

    Under the torsion hypothesis a prime shared by k and d cannot divide
    any u_i, so it divides every weight; rescaling the weights and degree
    by it presents an equivalent link.  Repeats until gcd(k, d') = 1.
    """
    obstruction = torsion_obstruction(k, base)
    if obstruction is not None:
        i, u = obstruction
        raise UsageError(
            f"cannot normalize: gcd({k}, u_{i + 1}) > 1 for u_{i + 1} = {u}; "
            "the torsion hypothesis fails"
        )
    ws = base
    g = math.gcd(k, ws.degree)
    while g > 1:
        if any(w % g for w in ws.weights):
            # ruled out by the hypothesis; kept as a hard integrity check
            raise IntegrityError(
                f"common factor {g} of k and d does not divide the weights of {ws}"
            )
        ws = WeightSystem(tuple(w // g for w in ws.weights), ws.degree // g)
        g = math.gcd(k, ws.degree)
    return k, ws
