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

import math
from collections import Counter
from enum import Enum
from typing import NamedTuple, Optional

from .arith import COUNT_MONOMIALS_CELL_LIMIT, check_digits
from .errors import IntegrityError, ResourceBudgetError, UsageError

# the most bitset cells the walk of `quasi_smooth_generic` may charge: each
# set it visits costs max(d + 1, 2^16) cells per shift and per AND with
# popcount of its bitset, the floor standing for the interpreter's cost of one
# step on a small d; at the limit the walk takes about 1.1 s, and past it the
# test is refused
QUASI_SMOOTH_WALK_CELL_LIMIT = 15 * 10**9

# the most bitset cells the walk may hold at once, one bitset of d + 1 cells
# per set on its path (12.5 MB); without it a walk within the charge above
# could hold hundreds of megabytes
QUASI_SMOOTH_PATH_CELL_LIMIT = 10**8

__all__ = [
    "WeightSystem",
    "CaseClass",
    "CoverData",
    "classify_case",
    "branched_cover",
    "quasi_smooth_generic",
    "torsion_hypothesis",
]


class _System(NamedTuple):
    weights: tuple[int, ...]
    degree: int


class WeightSystem(_System):
    """A weight vector together with a weighted-homogeneous degree.

    Systems are reduced on construction: g = gcd(d, w_1, ..., w_m) is
    divided out, so (2,2,2;6) *is* (1,1,1;3).  Both present the same
    polynomials and the same link, and each class has one representative.
    `_replace` and `_make` would skip the reduction, so nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...], degree: int) -> "WeightSystem":
        ws = tuple(weights)
        d = degree
        if len(ws) < 2:
            raise UsageError(f"a weight system needs at least two weights, got {ws}")
        try:
            if type(d) is bool or bool in map(type, ws):  # gcd takes a bool as an int
                raise TypeError
            g = math.gcd(d, *ws)
        except TypeError:
            raise UsageError(f"weights and degree must be integers, got {ws} and {d!r}") from None
        if min(ws) < 1:
            raise UsageError(f"weights must be positive, got {ws}")
        if d < 1:
            raise UsageError(f"degree must be positive, got {d}")
        if g > 1:
            ws = tuple(w // g for w in ws)
            d //= g
        return tuple.__new__(cls, (ws, d))

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
            weights = tuple(map(int, parts[0].split(",")))
            degree = int(parts[1])
        except ValueError as exc:
            raise UsageError(f"malformed integer in {text!r}: {exc}") from None
        return cls(weights, degree)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.weights)) + f";{self.degree})"


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


class CoverData(NamedTuple):
    """A k-fold branched cover of the sphere over the link of `base`.

    `cover` is the weight system of z_0^k + f.  When every base weight is
    a proper divisor of the base degree (`WeightSystem.bp_exponents`) and
    gcd(k, d) = 1, the cover is the class of a Brieskorn-Pham polynomial
    and `bp_exponents` holds (a_0, ..., a_m) with a_0 = k and
    a_i = d / w_i >= 2.  Covers with gcd(k, d) > 1 are representable; whether a
    cover is a rational homology sphere is `torsion_hypothesis`.  `selinks
    cover` prints the fields in this order.
    """

    base: WeightSystem
    k: int
    cover: WeightSystem
    bp_exponents: Optional[tuple[int, ...]]


def branched_cover(k: int, base: WeightSystem) -> CoverData:
    """Weights and degree of the k-fold cover z_0^k + f(z_1, ..., z_m).

    The cover has degree lcm(k, d) and weights (d/g, (k/g) w) with
    g = gcd(k, d).  The linear case k = 1 is a hyperplane section, not a
    cover, and is rejected.
    """
    coprime = torsion_hypothesis(k, base)  # refuses k < 2
    d = base.degree
    g = math.gcd(k, d)
    cover = WeightSystem(
        (d // g,) + tuple(k // g * w for w in base.weights), math.lcm(k, d)
    )
    bp = base.bp_exponents if coprime else None
    if bp is not None:
        bp = (k,) + bp
    return CoverData(base=base, k=k, cover=cover, bp_exponents=bp)


def quasi_smooth_generic(ws: WeightSystem) -> bool:
    """Whether a generic member of the weight class is quasi-smooth.

    Combinatorial subset criterion: for every nonempty index set I either
    (a) some monomial of degree d is supported inside I, or (b) there are
    |I| monomials of degree d of the form (monomial in I-variables) * z_j
    with the outside indices j pairwise distinct.  Quasi-smoothness of a
    generic member is equivalent to an isolated singularity at the origin
    for m >= 3.  The singleton tests come first: pure modular arithmetic
    over the distinct weights.  An I holding an i with w_i | d passes by
    z_i^{d/w_i} (the pointer view of Kreuzer-Skarke).  Of the other I with
    the same set S of distinct weights, the one taking every such index
    with a weight in S has the most indices and the fewest outside hits, so
    the walk tests one I per S: depth first, closing the parent's bitset of
    reachable degrees under one new weight, never extending a set that
    reaches d.  Past COUNT_MONOMIALS_CELL_LIMIT bitset cells, a charge of
    QUASI_SMOOTH_WALK_CELL_LIMIT (each set costs max(d + 1, 2^16) cells per
    shift and per AND with popcount) or QUASI_SMOOTH_PATH_CELL_LIMIT cells
    held on the walk's path, it raises ResourceBudgetError.
    """
    d = ws.degree
    distinct = set(ws.weights)
    # singletons: (a) x | d, or (b) some weight y has x | d - y; y = x
    # cannot serve, since x does not divide d - x when it does not divide d.
    # Look the d - y up among the multiples of x up to d when there are
    # fewer of those, else divide each d - y by x
    rest = {d - y for y in distinct if y <= d}
    for x in distinct:
        if d % x == 0:
            continue
        if d // x < len(rest):
            hit = not rest.isdisjoint(range(0, d + 1, x))
        else:
            hit = not all(map(x.__rmod__, rest))  # x.__rmod__(r) is r % x
        if not hit:
            return False
    counts = Counter(ws.weights)
    xs = sorted(x for x in counts if d % x)
    if sum(counts[x] for x in xs) < 2:
        return True
    if d + 1 > COUNT_MONOMIALS_CELL_LIMIT:
        check_digits(d + 1, "the cell count of a degree bitset")  # the message writes it
        raise ResourceBudgetError(
            f"tracing monomial degrees up to {d} needs {d + 1} bitset cells, "
            f"more than the limit of {COUNT_MONOMIALS_CELL_LIMIT}"
        )
    mask = (1 << (d + 1)) - 1
    # bit d - y of every weight y <= d, one mask per multiplicity: a set's
    # outside hits are one AND and popcount per multiplicity
    targets: dict[int, int] = {}
    for y, c in counts.items():
        if y <= d:
            targets[c] = targets.get(c, 0) | 1 << (d - y)
    unit = max(d + 1, 1 << 16)
    spent = sets = 0
    path = [(1, 0, 0)]  # per set on the path: reach bitset, |I|, next weight
    while path:
        bits, size, n = path.pop()
        if n == len(xs):
            continue
        path.append((bits, size, n + 1))
        x = xs[n]
        shifts = (d // x).bit_length()  # by x, 2x, 4x, ... up to d
        spent += (shifts + len(targets)) * unit
        sets += 1
        if spent > QUASI_SMOOTH_WALK_CELL_LIMIT:
            raise ResourceBudgetError(
                f"the quasi-smoothness test of {ws} charges more than the limit of "
                f"{QUASI_SMOOTH_WALK_CELL_LIMIT} bitset cells by its set {sets} of "
                "distinct weights"
            )
        for s in range(shifts):
            bits |= bits << (x << s) & mask
        if bits >> d & 1:
            continue
        size += counts[x]
        if sum(c * (bits & t).bit_count() for c, t in targets.items()) < size:
            return False
        if len(path) * (d + 1) > QUASI_SMOOTH_PATH_CELL_LIMIT:
            raise ResourceBudgetError(
                f"the quasi-smoothness test of {ws} holds {len(path)} bitsets of "
                f"{d + 1} cells on its path, more than the limit of "
                f"{QUASI_SMOOTH_PATH_CELL_LIMIT} cells"
            )
        path.append((bits, size, n + 1))
    return True


def _quasi_smooth(ws: WeightSystem) -> WeightSystem:
    """`ws`; IntegrityError when no member is quasi-smooth: the gate of every
    invariant the command line and `ingest_weight_list` compute."""
    if not quasi_smooth_generic(ws):
        raise IntegrityError(
            f"{ws} has no quasi-smooth member; invariants are not defined "
            "for this weight class"
        )
    return ws


def torsion_hypothesis(k: int, ws: WeightSystem) -> bool:
    """Whether the k-fold cover of `ws` is a rational homology sphere.

    The hypothesis is gcd(k, u_i) = 1 for every u_i / v_i = d / w_i in
    lowest terms.  The lcm of the u_i is d / gcd(d, w_1, ..., w_m), which
    is d on a reduced system, so the hypothesis is exactly gcd(k, d) = 1.
    """
    if k < 2:
        raise UsageError(f"branch order k must be at least 2, got {k}")
    return math.gcd(k, ws.degree) == 1
