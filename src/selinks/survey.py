"""Catalog generators: named families and bounded enumeration scans.

Each generator emits `FamilyRecord` rows for candidate Sasakian-Einstein
rational homology spheres: cover parameters, torsion order, genus where it
applies, effective parameter counts, and the full certificate.  Scans are
bounded verifications: results are exhaustive up to the configured bounds
and deterministic (records are put in a canonical sort order, so catalogs
are byte-identical across runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple, Optional

from .arith import FactoredPower, count_monomials
from .errors import IntegrityError, UsageError
from .ke_cert import (
    KeCertificate,
    bp_sufficient_ke,
    certify_cover,
    euclidean_k_threshold,
    hyperbolic_k_window,
)
from .links import WeightSystem, branched_cover, quasi_smooth_generic
from .moduli import ModuliCount, moduli_count
from .topology import genus, torsion_order

__all__ = [
    "ScanConfig",
    "EuclideanRow",
    "FamilyRecord",
    "IngestResult",
    "scan_euclidean_classification",
    "generate_theorem2_family",
    "scan_fermat_cy",
    "scan_hyperbolic",
    "generate_mixed_canonical",
    "scan_all",
    "ingest_weight_list",
]

# the three Euclidean (|w| = d) classes in three variables
_EUCLIDEAN_BASES = (
    WeightSystem((1, 1, 1), 3),
    WeightSystem((1, 1, 2), 4),
    WeightSystem((1, 2, 3), 6),
)


@dataclass(frozen=True)
class ScanConfig:
    """Bounds for the generators."""

    weight_bound: int = 60
    k_bound: int = 60
    m_range: tuple[int, int] = (3, 8)
    k_min: int = 2
    # generation is serial; a constant because perfbench/trace.py reads it
    thread_budget: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.weight_bound < 1 or self.k_bound < 1:
            raise UsageError("bounds must be positive")
        if self.k_min < 2:
            raise UsageError(f"k_min must be at least 2, got {self.k_min}")
        lo, hi = self.m_range
        if lo < 3 or hi < lo:
            raise UsageError(f"m range must satisfy 3 <= lo <= hi, got {self.m_range}")


class EuclideanRow(NamedTuple):
    """One |w| = d class with its count of degree-d monomials."""

    system: WeightSystem
    monomials: int


@dataclass(frozen=True)
class FamilyRecord:
    """One catalog row: a certified candidate rational homology sphere."""

    family_tag: str
    m: int
    k: int
    l_or_d: int
    base: WeightSystem
    link_dimension: int
    torsion: FactoredPower
    genus: Optional[int]
    moduli: ModuliCount
    certificate: KeCertificate
    paper_min_k: Optional[int] = None
    literal_min_k: Optional[int] = None

    def sort_key(self):
        return (
            self.family_tag,
            self.m,
            self.l_or_d,
            self.k,
            self.base.canonical().weights,
            self.base.degree,
        )


@dataclass
class IngestResult:
    """Records produced from a user-supplied weight list, plus row diagnostics."""

    records: list[FamilyRecord]
    errors: list[str]


def _build_record(
    tag: str,
    k: int,
    base: WeightSystem,
    l_or_d: int,
    paper_min_k: Optional[int] = None,
    literal_min_k: Optional[int] = None,
) -> FamilyRecord:
    cover = branched_cover(k, base)
    return FamilyRecord(
        family_tag=tag,
        m=base.m,
        k=k,
        l_or_d=l_or_d,
        base=base.canonical(),
        link_dimension=2 * base.m - 1,
        torsion=torsion_order(k, base),
        genus=genus(base) if base.m == 3 else None,
        moduli=moduli_count(cover.cover),
        certificate=certify_cover(k, base),
        paper_min_k=paper_min_k,
        literal_min_k=literal_min_k,
    )


def _catalog(tag: str, tasks: Iterable[tuple]) -> list[FamilyRecord]:
    """Records for (k, base, l_or_d[, paper_min_k, literal_min_k]) tasks, in catalog order."""
    records = [_build_record(tag, *task) for task in tasks]
    records.sort(key=FamilyRecord.sort_key)
    return records


def scan_euclidean_classification(cfg: ScanConfig) -> list[EuclideanRow]:
    """All |w| = d classes in three variables up to the weight bound.

    Enumerates canonical triples w1 <= w2 <= w3 <= weight_bound with
    gcd 1 and d = w1 + w2 + w3, keeping those with a quasi-smooth member.
    Exhaustive up to the bound; the outcome is stable once the bound
    covers all genuine classes.
    """
    rows = []
    for w3 in range(1, cfg.weight_bound + 1):
        for w2 in range(1, w3 + 1):
            for w1 in range(1, w2 + 1):
                if math.gcd(w1, math.gcd(w2, w3)) != 1:
                    continue
                ws = WeightSystem((w1, w2, w3), w1 + w2 + w3)
                if quasi_smooth_generic(ws):
                    rows.append(EuclideanRow(ws, count_monomials(ws.weights, ws.degree)))
    rows.sort(key=lambda row: (row.system.weights, row.system.degree))
    return rows


def _least_certifying_k(base: WeightSystem, k_bound: int) -> Optional[int]:
    """Smallest admissible k whose cover passes the sufficiency inequality."""
    for k in range(2, k_bound + 1):
        if math.gcd(k, base.degree) != 1:
            continue
        cover = branched_cover(k, base)
        if cover.bp_exponents is None:
            continue
        if bp_sufficient_ke(cover.bp_exponents).verdict:
            return k
    return None


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
    tasks = []
    for base in _EUCLIDEAN_BASES:
        paper = euclidean_k_threshold(base)
        literal = _least_certifying_k(base, cfg.k_bound)
        tasks += [
            (k, base, base.degree, paper, literal)
            for k in range(cfg.k_min, cfg.k_bound + 1)
            if math.gcd(k, base.degree) == 1
        ]
    return _catalog("euclidean5", tasks)


def scan_fermat_cy(cfg: ScanConfig) -> list[FamilyRecord]:
    """Covers of the Fermat Calabi-Yau bases (1, ..., 1; m), gcd(k, m) = 1.

    Emits one record per (m, k) in range; the torsion exponent and the
    parameter count depend only on m, while the certificate flips exactly
    at k = m(m-1).
    """
    lo, hi = cfg.m_range
    tasks = [
        (k, WeightSystem((1,) * m, m), m)
        for m in range(lo, hi + 1)
        for k in range(cfg.k_min, cfg.k_bound + 1)
        if math.gcd(k, m) == 1
    ]
    return _catalog("fermat_cy", tasks)


def scan_hyperbolic(cfg: ScanConfig) -> list[FamilyRecord]:
    """Covers of hyperbolic Fermat bases (1, ..., 1; l), m+1 <= l <= 2m-1.

    Branch orders come from the exact admissibility window; for l = m+1
    the window contains exactly k = m.
    """
    lo, hi = cfg.m_range
    tasks = []
    for m in range(lo, hi + 1):
        for l in range(m + 1, 2 * m):
            window = hyperbolic_k_window(m, l)
            for k in window.solutions:
                if cfg.k_min <= k <= cfg.k_bound:
                    tasks.append((k, WeightSystem((1,) * m, l), l))
    return _catalog("hyperbolic", tasks)


def generate_mixed_canonical(cfg: ScanConfig) -> list[FamilyRecord]:
    """The mixed-exponent canonical family (2m-1, 2m, ..., 2m, 2).

    Base (1, ..., 1, m; 2m) covered with branch order k = 2m-1; the
    sufficiency inequality holds for every m >= 2, so the whole family is
    certified.
    """
    lo, hi = cfg.m_range
    tasks = []
    for m in range(lo, hi + 1):
        k = 2 * m - 1
        if cfg.k_min <= k <= cfg.k_bound:
            tasks.append((k, WeightSystem((1,) * (m - 1) + (m,), 2 * m), 2 * m))
    return _catalog("mixed_canonical", tasks)


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


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def ingest_weight_list(lines: Iterable[str], cfg: ScanConfig) -> IngestResult:
    """Run the full pipeline on user-supplied base systems.

    Input is one system per line in the form ``w1,...,wm;d`` with ``#``
    comments.  Each accepted base is covered by every k in the configured
    range with gcd(k, d) = 1.  Malformed rows, rows without a quasi-smooth
    member and rows whose invariants come out impossible (IntegrityError)
    are reported with their line numbers and skipped; they never abort the
    batch or cost another row its records.
    """
    records: list[FamilyRecord] = []
    errors: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        text = _strip_comment(raw)
        if not text:
            continue
        try:
            ws = WeightSystem.parse(text)
        except UsageError as exc:
            errors.append(f"line {lineno}: {exc}")
            continue
        if not quasi_smooth_generic(ws):
            errors.append(
                f"line {lineno}: {ws} rejected: no quasi-smooth member "
                "(the generic singularity is not isolated)"
            )
            continue
        ks = [k for k in range(cfg.k_min, cfg.k_bound + 1) if math.gcd(k, ws.degree) == 1]
        try:
            records += [_build_record("ingested", k, ws, ws.degree) for k in ks]
        except IntegrityError as exc:
            errors.append(f"line {lineno}: {exc}")
    records.sort(key=FamilyRecord.sort_key)
    return IngestResult(records=records, errors=errors)
