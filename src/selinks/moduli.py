"""Effective parameter counts of the certified metric families.

The complex count is mu = h^0(O(d)) - sum_i h^0(O(w_i)) evaluated on the
cover system (branch variable included): deformation monomials of full
degree minus infinitesimal automorphisms, both as literal weighted
monomial counts.  The real dimension doubles the non-negative part.

On the k-fold cover of a base (w; d) with gcd(k, d) = 1 the count does
not depend on k.  The branch variable z_0 has weight d, so a cover
monomial of degree k t has a z_0-exponent divisible by k, which gives
h^0_cover(O(k t)) = sum_{j >= 0} h^0_base(O(t - j d)) and
h^0_cover(O(d)) = 1.  Catalogs therefore count once per base, on one
counting table of the base (`moduli_count` of a `CoverData`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .arith import count_monomials
from .errors import UsageError
from .links import CoverData, WeightSystem

__all__ = [
    "ModuliCount",
    "moduli_count",
    "fermat_cy_moduli",
    "hyperbolic_moduli",
]


class ModuliCount(NamedTuple):
    """mu = h0_degree - h0_weights_sum; real_dim = 2 max(mu, 0)."""

    h0_degree: int
    h0_weights_sum: int

    @property
    def complex_dim(self) -> int:
        return self.h0_degree - self.h0_weights_sum

    @property
    def real_dim(self) -> int:
        return 2 * max(self.complex_dim, 0)


def moduli_count(ws: WeightSystem | CoverData) -> ModuliCount:
    """Monomial-count evaluation of mu on a (cover) weight system.

    On a weight system the count is literal.  No correction is applied for
    extra automorphisms among repeated weights; the closed forms below come
    from the same literal count.  h0(O(w)) depends only on the value w: one
    count per distinct weight.

    The `CoverData` of a k prime to the base degree d is counted on one
    table t of the base, t[s] = h0_base(O(s)) up to the greatest of d and
    the w_i (the module docstring's identity): h0_degree = t[d] + 1 and
    h0_weights_sum = 1 + sum_i sum_{j >= 0} t[w_i - j d], the slice
    t[w_i::-d].  The j = 1 term is there only when w_i >= d: a weight equal
    to d is a linear term, which `quasi_smooth_generic` accepts.  Other
    cover data is counted literally on its cover.
    """
    if type(ws) is CoverData:
        d, weights = ws.base.degree, ws.base.weights
        if math.gcd(ws.k, d) == 1:
            t = count_monomials(weights, max(d, *weights), table=True)
            return ModuliCount(t[d] + 1, 1 + sum(sum(t[w::-d]) for w in weights))
        ws = ws.cover
    h0_d = count_monomials(ws.weights, ws.degree)
    h0_w = sum(n * count_monomials(ws.weights, w) for w, n in Counter(ws.weights).items())
    return ModuliCount(h0_d, h0_w)


def fermat_cy_moduli(m: int) -> int:
    """Closed form C(2m-1, m) - m^2 for covers of the Fermat Calabi-Yau base.

    Independent of the branch order k (for admissible k); grows
    exponentially with m.
    """
    if m < 3:
        raise UsageError(f"m must be at least 3, got {m}")
    return math.comb(2 * m - 1, m) - m * m


def hyperbolic_moduli(m: int, l: int) -> int:
    """Closed form C(m+l-1, l) - m^2 for covers of the degree-l Fermat base."""
    from .ke_cert import hyperbolic_k_window
    hyperbolic_k_window(m, l)  # refuses an m and l whose covers have no window
    return math.comb(m + l - 1, l) - m * m
