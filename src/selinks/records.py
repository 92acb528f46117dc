"""Record builders of the catalog generators.

Only a generator that builds records loads this module, where it runs, so
`selinks --version` and `scan euclidean` compile none of it.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .arith import FactoredPower, check_digits
from .errors import IntegrityError
from .links import WeightSystem, branched_cover
from .survey import FamilyRecord, _branch_orders

# ke_cert, moduli and topology are imported where they run, per call or per base


def _records(
    tag: str,
    base: WeightSystem,
    ks: list[int],
    paper_min_k: Optional[int] = None,
    literal_min_k: Optional[int] = None,
) -> list[FamilyRecord]:
    """Records of the k-fold covers of `base` for the k in `ks`, each coprime
    to d (`survey._branch_orders`).

    A base with no k costs nothing.  The Betti number, the genus, the
    moduli count and the certificate inequalities solved in k
    (`_cover_rule`) are computed once per base, exactly: a cover monomial
    z_0^a z^beta of degree k t forces k | a, so h0_cover(O(k t)) =
    sum_{j >= 0} h0_base(O(t - j d)) and h0_cover(O(d)) = 1, neither
    depending on k, and `moduli_count` of the cover data reads them off one
    counting table of the base.
    """
    if not ks:
        return []
    from .ke_cert import _cover_rule, certify_cover
    from .moduli import moduli_count
    from .topology import genus, torsion_order
    # records name the sorted base, so the certificate's witness indexes it
    base = base.canonical()
    k0 = min(ks)
    # an integer past the int-to-str limit could not be written: the base is
    # refused here, once, so that no catalog fails to render
    betti = check_digits(torsion_order(k0, base).exponent, f"b_{base.m - 2}")
    # records read the genus off b_1 = 2g; the Orlik-Wagreich genus checks it
    if base.m == 3 and 2 * (g := genus(base)) != betti:
        raise IntegrityError(f"the orbit curve of {base} has genus {g}, but b_1 = {betti}")
    moduli = moduli_count(branched_cover(k0, base))
    # real_dim = 2 max(mu, 0) can have one digit more than the counts
    for name in ("complex_dim", "real_dim", "h0_degree", "h0_weights_sum"):
        check_digits(getattr(moduli, name), name)
    rule = _cover_rule(base)
    # by position: keywords double what building a NamedTuple costs
    return [
        FamilyRecord(
            tag, base, FactoredPower(k, betti), moduli, certify_cover(k, base, rule=rule),
            paper_min_k, literal_min_k,
        )
        for k in ks
    ]


def _catalog(tag: str, groups: Iterable[tuple]) -> list[FamilyRecord]:
    """Records for (base, ks[, paper_min_k, literal_min_k]) groups, in catalog
    order; every group's branch orders are counted against the record
    budget before any record is built."""
    kept, spent = [], 0
    for base, ks, *rest in groups:
        orders = _branch_orders(base, ks, spent)
        spent += len(orders)
        kept.append((base, orders, *rest))
    records = [rec for group in kept for rec in _records(tag, *group)]
    records.sort(key=FamilyRecord.sort_key)
    return records


def _least_certifying_k(base: WeightSystem, k_bound: int) -> Optional[int]:
    """Smallest k coprime to d (`links.torsion_hypothesis`) whose cover passes
    the literal sufficiency inequality (`bp_sufficient_ke`), swept over k."""
    from .ke_cert import bp_sufficient_ke
    exponents = base.bp_exponents
    if exponents is None:
        return None
    for k in range(2, k_bound + 1):
        if math.gcd(k, base.degree) == 1 and bp_sufficient_ke((k,) + exponents).verdict:
            return k
    return None
