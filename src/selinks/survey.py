"""Catalog generators: named families and bounded enumeration scans.

Each generator emits `FamilyRecord` rows for candidate Sasakian-Einstein
rational homology spheres: cover parameters, torsion order, genus where it
applies, effective parameter counts, and the full certificate.  Scans are
bounded verifications: results are exhaustive up to the configured bounds
and deterministic (records are put in a canonical sort order, so catalogs
are byte-identical across runs).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

from .arith import COUNT_MONOMIALS_CELL_LIMIT, FactoredPower, _ints, count_monomials
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .links import WeightSystem, _quasi_smooth, quasi_smooth_generic

# the record builders (`records`), and ke_cert, moduli and topology, are
# imported where they run, per call or per base
if TYPE_CHECKING:
    from .ke_cert import KeCertificate
    from .moduli import ModuliCount

__all__ = [
    "ScanConfig",
    "EuclideanRow",
    "FamilyRecord",
    "scan_euclidean_classification",
    "generate_theorem2_family",
    "scan_fermat_cy",
    "scan_hyperbolic",
    "generate_mixed_canonical",
    "scan_all",
    "ingest_weight_list",
]

# the most records one scan, or one ingest run in total, may build; at the
# limit `scan fermat-cy` takes about 4.7 s and 170 MiB peak as JSON, and past
# it the run is refused before it runs out of memory (see README)
CATALOG_RECORD_LIMIT = 50_000

# the most variables a base of the fermat-cy, hyperbolic and mixed-canonical
# scans may have; at m 3..32 each scan builds its bases' invariants in under
# half a second (the record budget bounds the k side), and past it the scan
# is refused before any base is built (see README)
SCAN_M_LIMIT = 32


class _Bounds(NamedTuple):
    weight_bound: int = 60
    k_bound: int = 60
    m_range: tuple[int, int] = (3, 8)
    k_min: int = 2


class ScanConfig(_Bounds):
    """Bounds for the generators, validated on construction (`_replace` and
    `_make` would skip the check, so nothing calls them)."""

    __slots__ = ()
    # generation is serial; a constant because perfbench/trace.py reads it
    thread_budget = 1

    def __new__(cls, *args, **kwargs) -> "ScanConfig":
        self = super().__new__(cls, *args, **kwargs)
        # a catalog's JSON bounds give m_range as a list
        if not isinstance(self.m_range, (tuple, list)) or len(self.m_range) != 2:
            raise UsageError(f"m range must be a pair (lo, hi), got {self.m_range!r}")
        _ints((self.weight_bound, self.k_bound, *self.m_range, self.k_min))
        if self.weight_bound < 1 or self.k_bound < 1:
            raise UsageError(
                f"bounds must be positive, got weight_bound {self.weight_bound} "
                f"and k_bound {self.k_bound}"
            )
        if self.k_min < 2:
            raise UsageError(f"k_min must be at least 2, got {self.k_min}")
        lo, hi = self.m_range
        if lo < 3 or hi < lo:
            raise UsageError(f"m range must satisfy 3 <= lo <= hi, got {self.m_range}")
        # kept as a tuple, so that configs compare and hash by value
        return super().__new__(cls, self.weight_bound, self.k_bound, (lo, hi), self.k_min)


class EuclideanRow(NamedTuple):
    """One |w| = d class with its count of degree-d monomials."""

    system: WeightSystem
    monomials: int


class FamilyRecord(NamedTuple):
    """One catalog row: a certified candidate rational homology sphere.  Its k,
    m, l_or_d, link_dimension and genus are read off the base and k^b."""

    family_tag: str
    base: WeightSystem
    torsion: FactoredPower
    moduli: ModuliCount
    certificate: KeCertificate
    paper_min_k: Optional[int] = None
    literal_min_k: Optional[int] = None

    @property
    def k(self) -> int:
        return self.torsion.base

    @property
    def m(self) -> int:
        return len(self.base.weights)

    @property
    def l_or_d(self) -> int:
        return self.base.degree

    @property
    def link_dimension(self) -> int:
        return 2 * len(self.base.weights) - 1

    @property
    def genus(self) -> Optional[int]:  # of the orbit curve, where b_1 = 2g
        return self.torsion.exponent // 2 if len(self.base.weights) == 3 else None

    def sort_key(self):
        # the order of every catalog: each generator sorts its records by
        # it, and `parse_catalog_json` sorts what it reads by it, stably, so
        # the records of an ingest row given twice stay as written.  The base
        # is sorted already: `records._records` and the reader build it
        # canonical.  It reads the stored fields, not the m, l_or_d and k
        # properties
        base = self.base
        return (self.family_tag, len(base.weights), base.degree, self.torsion.base, base.weights)


def _branch_orders(base: WeightSystem, ks: Iterable[int], spent: int = 0) -> list[int]:
    """The k in `ks` (each at least 2) coprime to d, refused once they and
    the `spent` records counted before them would pass CATALOG_RECORD_LIMIT.

    Every catalog's records pass through here (`hyperbolic_k_window` and
    `records._least_certifying_k` also skip the other k, in their own
    sweeps).  The rule is `links.torsion_hypothesis`, gcd(k, d) = 1 on a
    reduced system.
    The count stops one past the limit: a huge k range is refused at once.
    """
    d, room = base.degree, CATALOG_RECORD_LIMIT - spent
    orders = list(itertools.islice((k for k in ks if math.gcd(k, d) == 1), room + 1))
    if len(orders) > room:
        raise ResourceBudgetError(
            f"a catalog of more than {CATALOG_RECORD_LIMIT} records is refused "
            f"(the limit is passed at {base}, k = {orders[-1]})"
        )
    return orders


def _m_values(cfg: ScanConfig) -> range:
    """The m of cfg.m_range; past SCAN_M_LIMIT, ResourceBudgetError."""
    lo, hi = cfg.m_range
    if hi > SCAN_M_LIMIT:
        raise ResourceBudgetError(
            f"a scan of bases in {lo}..{hi} variables is refused: the limit is "
            f"{SCAN_M_LIMIT} variables"
        )
    return range(lo, hi + 1)


def _euclidean_candidates(m: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Sorted weight vectors w_1 <= ... <= w_m <= bound that may be Euclidean
    (|w| = d) and quasi-smooth, in lexicographic order.

    Only the m - 2 smallest weights P are walked (sum T, largest lo); the
    two largest, v <= x, come from closed forms of the singleton tests of
    `quasi_smooth_generic`, with d = T + v + x:
    - on x: x | d - y for some y in {0, v} + P (y = x is y = 0), that is
      c x = T + v - y, where 0 < T + v - y <= (m - 1) x gives 0 < c < m;
    - on v: v | d - x = T + v, that is v | T, or v | d - q = T + v + x - q
      for some q in {0} + P, that is v | T + x - q; times c,
      v | Q = (c + 1) T - p - c q, with p = y, or p = 0 when y = v.  As p, q <= lo <= T, 0 <= Q <= m (m - 2) lo, so v = Q / e
      for some e <= Q / lo.
    Q = 0 only when m = 3, p = q = w_1 and x = v.  Then one index lies
    outside the index set {2, 3}, so the walk's test of it needs v | d, that
    is v | w_1, and gcd 1 leaves (1, 1, 1), which v | T gives.  So no
    quasi-smooth system is left out.

    The walk is charged before anything is built, and past
    COUNT_MONOMIALS_CELL_LIMIT it is refused with ResourceBudgetError.  Each
    of the C(bound + m - 3, m - 2) prefixes P costs one step, and each
    (c, p, n) at most (c + 1)(m - 2) + 1 more: the n itself and its trials
    e <= n / lo, as n <= (c + 1) T <= (c + 1)(m - 2) lo.  Summed over the
    c < m, at most m - 1 values of p and at most m of n, a prefix costs at
    most 1 + m (m - 1)^2 (m^2 - 2) / 2 steps.
    """
    steps = math.comb(bound + m - 3, m - 2) * (1 + m * (m - 1) ** 2 * (m * m - 2) // 2)
    if steps > COUNT_MONOMIALS_CELL_LIMIT:
        raise ResourceBudgetError(
            f"enumerating Euclidean systems in {m} variables up to weight bound {bound} "
            f"walks its weight prefixes in {steps} steps, more than the limit of "
            f"{COUNT_MONOMIALS_CELL_LIMIT}"
        )
    for head in itertools.combinations_with_replacement(range(1, bound + 1), m - 2):
        t, lo = sum(head), head[-1]
        zs = {0, *head}
        pairs = set()
        for c in range(1, m):
            for p in zs:
                # v | T pairs with every (c, y); v | Q with the y of its p
                for n in {t, *((c + 1) * t - p - c * q for q in zs)}:
                    for e in range(1, n // lo + 1):
                        v, r = divmod(n, e)
                        if r or v > bound:
                            continue
                        for cx in (t + v - p,) if p else (t + v, t):  # y = p, or y in {0, v}
                            x, r = divmod(cx, c)
                            if not r and v <= x <= bound:
                                pairs.add((v, x))
        for pair in sorted(pairs):
            yield head + pair


def _euclidean_systems(m: int, bound: int) -> list[WeightSystem]:
    """Every |w| = d class in m >= 3 variables with a quasi-smooth member and
    sorted weights up to `bound`, with gcd(w) = 1, in lexicographic order
    (`_euclidean_candidates`)."""
    systems = []
    for weights in _euclidean_candidates(m, bound):
        if math.gcd(*weights) != 1:
            continue
        ws = WeightSystem(weights, sum(weights))
        if quasi_smooth_generic(ws):
            systems.append(ws)
    return systems


# the three Euclidean (|w| = d) classes in three variables: every such class
# has weights <= 3 (stable from weight bound 3 on), so bound 3 lists them all
_EUCLIDEAN_BASES = tuple(_euclidean_systems(3, 3))


def scan_euclidean_classification(cfg: ScanConfig) -> list[EuclideanRow]:
    """All |w| = d classes in three variables up to the weight bound.

    Enumerates canonical triples w1 <= w2 <= w3 <= weight_bound with
    gcd 1 and d = w1 + w2 + w3, w2 and w3 taken from closed forms of the
    singleton tests (`_euclidean_candidates`), keeping those with a
    quasi-smooth member.  Exhaustive up to the bound; the outcome is stable
    once the bound covers all genuine classes.
    """
    return [
        EuclideanRow(ws, count_monomials(ws.weights, ws.degree))
        for ws in _euclidean_systems(3, cfg.weight_bound)
    ]


def generate_theorem2_family(cfg: ScanConfig) -> list[FamilyRecord]:
    """Covers of the three Euclidean classes: rational homology 5-spheres.

    For each class (d in {3, 4, 6}) and each branch order k <= k_bound
    coprime to d, the cover has torsion of order k^2, the base curve has
    genus 1, and the quotient is Fano.  Every record pairs the minimal k
    the source analysis claims, which is the necessary-klt threshold
    `euclidean_k_threshold` (3/3/5), with the minimal k a literal sweep of
    the sufficiency inequality produces (7/11/13).  The two disagree and
    records carry both, so the discrepancy stays visible as data.
    """
    from .ke_cert import euclidean_k_threshold
    from .records import _catalog, _least_certifying_k
    ks = range(cfg.k_min, cfg.k_bound + 1)
    groups = [
        (base, ks, euclidean_k_threshold(base), _least_certifying_k(base, cfg.k_bound))
        for base in _EUCLIDEAN_BASES
    ]
    return _catalog("euclidean5", groups)


def scan_fermat_cy(cfg: ScanConfig) -> list[FamilyRecord]:
    """Covers of the Fermat Calabi-Yau bases (1, ..., 1; m), gcd(k, m) = 1.

    Emits one record per (m, k) in range; the torsion exponent and the
    parameter count depend only on m, while the certificate flips exactly
    at k = m(m-1).
    """
    from .records import _catalog
    ks = range(cfg.k_min, cfg.k_bound + 1)
    return _catalog("fermat_cy", [(WeightSystem((1,) * m, m), ks) for m in _m_values(cfg)])


def scan_hyperbolic(cfg: ScanConfig) -> list[FamilyRecord]:
    """Covers of hyperbolic Fermat bases (1, ..., 1; l), m+1 <= l <= 2m-1.

    Branch orders come from the exact admissibility window; for l = m+1
    the window contains exactly k = m.
    """
    from .ke_cert import hyperbolic_k_window
    from .records import _catalog
    ks = range(cfg.k_min, cfg.k_bound + 1)
    groups = [
        (WeightSystem((1,) * m, l), [k for k in hyperbolic_k_window(m, l).solutions if k in ks])
        for m in _m_values(cfg)
        for l in range(m + 1, 2 * m)
    ]
    return _catalog("hyperbolic", groups)


def generate_mixed_canonical(cfg: ScanConfig) -> list[FamilyRecord]:
    """The mixed-exponent canonical family (2m-1, 2m, ..., 2m, 2).

    Base (1, ..., 1, m; 2m) covered with branch order k = 2m-1; the
    sufficiency inequality holds for every m >= 2, so the whole family is
    certified.
    """
    from .records import _catalog
    groups = [
        (WeightSystem((1,) * (m - 1) + (m,), 2 * m), [2 * m - 1])
        for m in _m_values(cfg)
        if cfg.k_min <= 2 * m - 1 <= cfg.k_bound
    ]
    return _catalog("mixed_canonical", groups)


def scan_all(cfg: ScanConfig) -> list[FamilyRecord]:
    """Union of every family generator, in canonical catalog order."""
    records = (
        generate_theorem2_family(cfg)
        + scan_fermat_cy(cfg)
        + scan_hyperbolic(cfg)
        + generate_mixed_canonical(cfg)
    )
    records.sort(key=FamilyRecord.sort_key)
    return records


def ingest_weight_list(
    lines: Iterable[str | bytes],
    cfg: ScanConfig,
    *,
    report: Callable[[str], object],
    expand_torsion: bool = False,
) -> list[FamilyRecord]:
    """Run the full pipeline on user-supplied base systems; the records, in
    catalog order.

    Input is one system per line in the form ``w1,...,wm;d`` with ``#``
    comments; a line given as bytes is decoded as UTF-8, and a byte order
    mark opening the first line is dropped.  Each accepted base is covered
    by every k in the configured range with gcd(k, d) = 1.  Lines that are
    not UTF-8, malformed rows, rows without a quasi-smooth member, rows
    whose invariants come out impossible (IntegrityError) and rows past a
    resource budget (ResourceBudgetError) are skipped; each is passed to
    `report` as one diagnostic naming its line number, as the row fails and
    before the next line is read, so none is held here.  They never abort
    the batch or cost another row its records.  With `expand_torsion`, a
    row whose torsion orders would be written in decimal past the
    interpreter's int-to-str limit is such a row: k^b grows with k, so the
    largest k decides.  Only the run's record budget (CATALOG_RECORD_LIMIT,
    counted over all rows) ends the run, with ResourceBudgetError.
    """
    from .records import _records
    records: list[FamilyRecord] = []
    ks = range(cfg.k_min, cfg.k_bound + 1)
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                report(f"line {lineno}: not UTF-8 text ({exc})")
                continue
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            ws = _quasi_smooth(WeightSystem.parse(text))
        except (UsageError, IntegrityError, ResourceBudgetError) as exc:
            report(f"line {lineno}: {exc}")
            continue
        # the record budget is the run's, not the row's: passing it ends the run
        orders = _branch_orders(ws, ks, len(records))
        try:
            rows = _records("ingested", ws, orders)
            if expand_torsion and rows:
                rows[-1].torsion.expand()  # the orders ascend
            records += rows
        except (IntegrityError, ResourceBudgetError) as exc:
            report(f"line {lineno}: {exc}")
    records.sort(key=FamilyRecord.sort_key)
    return records
