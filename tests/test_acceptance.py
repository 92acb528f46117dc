"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every assertion is exact equality of integers or rationals; run with
``pytest tests/test_acceptance.py -v`` (or ``-s`` for the PASS lines).
"""

import itertools
import math
import time

import pytest

from selinks import (
    ScanConfig,
    WeightSystem,
    betti_bp_oracle,
    bp_sufficient_ke,
    fermat_cy_moduli,
    generate_theorem2_family,
    genus,
    hyperbolic_k_window,
    hyperbolic_moduli,
    milnor_orlik_betti,
    moduli_count,
    branched_cover,
    quasi_smooth_generic,
    scan_all,
    scan_euclidean_classification,
    scan_hyperbolic,
)
from selinks.cli import parse_catalog_json, render_catalog


def _ok(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n:>2}: PASS  ({text})")


def test_criterion_01_milnor_orlik_reproduction():
    for weights, degree, expected in [((1, 1, 1, 1), 4, 21), ((1,) * 5, 5, 204)]:
        ws = WeightSystem(weights, degree)
        assert milnor_orlik_betti(ws) == expected
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            milnor_orlik_betti(ws)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"slowest permitted 1 ms, got {min(timings):.2e} s"
    _ok(1, "b2 values 21 and 204, each under 1 ms")


def test_criterion_02_oracle_equivalence():
    cases = 0
    for m in (2, 3, 4):
        for a in itertools.product(range(2, 9), repeat=m):
            if math.prod(ai - 1 for ai in a) > 10_000_000:
                continue
            big_l = math.lcm(*a)
            ws = WeightSystem(tuple(big_l // ai for ai in a), big_l)
            assert milnor_orlik_betti(ws) == betti_bp_oracle(a), a
            cases += 1
    assert cases >= 300
    _ok(2, f"subset formula equals enumeration on {cases} Brieskorn systems")


def test_criterion_03_genus_suite(qs_triple_corpus):
    for weights, d in [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]:
        assert genus(WeightSystem(weights, d)) == 1
    for d in range(3, 7):
        assert genus(WeightSystem((1, 1, 1), d)) == (d - 1) * (d - 2) // 2
    for ws in qs_triple_corpus:
        assert milnor_orlik_betti(ws) == 2 * genus(ws), str(ws)
    _ok(3, f"genus values and b1 = 2g on {len(qs_triple_corpus)} systems")


def test_criterion_04_euclidean_classification():
    expected = [
        ((1, 1, 1), 3, 10),
        ((1, 1, 2), 4, 9),
        ((1, 2, 3), 6, 7),
    ]
    rows60 = scan_euclidean_classification(ScanConfig(weight_bound=60))
    assert [(r.system.weights, r.system.degree, r.monomials) for r in rows60] == expected
    rows120 = scan_euclidean_classification(ScanConfig(weight_bound=120))
    assert [(r.system.weights, r.system.degree, r.monomials) for r in rows120] == expected
    _ok(4, "exactly three classes at bound 60, unchanged at bound 120")


def test_criterion_05_fermat_cy_threshold():
    checked = 0
    for m in range(3, 7):
        for k in range(2, 61):
            if math.gcd(k, m) != 1:
                continue
            verdict = bp_sufficient_ke((k,) + (m,) * m).verdict
            assert verdict == (k > m * (m - 1)), (m, k)
            checked += 1
    _ok(5, f"certificate flips exactly at k = m(m-1), {checked} cases")


def test_criterion_06_hyperbolic_dimension_5():
    records = [r for r in scan_hyperbolic(ScanConfig()) if r.m == 3]
    assert len(records) == 1
    rec = records[0]
    assert (rec.l_or_d, rec.k) == (4, 3)
    assert (rec.torsion.base, rec.torsion.exponent) == (3, 6)
    assert rec.torsion.expand() == 729
    assert rec.moduli.complex_dim == 6
    assert rec.moduli.real_dim == 12
    _ok(6, "single record (l,k)=(4,3), torsion 3^6=729, 12 real parameters")


def test_criterion_07_l_equals_m_plus_1_windows():
    for m in range(3, 9):
        assert hyperbolic_k_window(m, m + 1).solutions == (m,)
    _ok(7, "window at l=m+1 contains exactly k=m for m=3..8")


def test_criterion_08_mixed_canonical_family():
    for m in range(3, 9):
        exponents = (2 * m - 1,) + (2 * m,) * (m - 1) + (2,)
        assert bp_sufficient_ke(exponents).verdict, exponents
    _ok(8, "mixed family (2m-1, 2m, ..., 2m, 2) certified for m=3..8")


def test_criterion_09_moduli():
    assert fermat_cy_moduli(4) == 19
    assert fermat_cy_moduli(5) == 101
    for m in range(3, 8):
        k = next(k for k in range(m + 1, 100) if math.gcd(k, m) == 1)
        cover = branched_cover(k, WeightSystem((1,) * m, m)).cover
        assert moduli_count(cover).complex_dim == fermat_cy_moduli(m), m
    assert hyperbolic_moduli(3, 4) == 6
    _ok(9, "closed forms 19/101/6 and literal counts agree for m=3..7")


def test_criterion_10_theorem2_family():
    records = generate_theorem2_family(ScanConfig())
    expected_pairs = {3: (3, 7), 4: (3, 11), 6: (5, 13)}
    for d in (3, 4, 6):
        fam = [r for r in records if r.l_or_d == d]
        assert len(fam) >= 5
        for rec in fam[:5]:
            assert rec.torsion.exponent == 2
            assert rec.genus == 1
            assert rec.certificate.fano
            assert rec.moduli.complex_dim == 1
            assert (rec.paper_min_k, rec.literal_min_k) == expected_pairs[d]
    _ok(10, "torsion k^2, genus 1, mu=1; (paper, literal) min-k pairs stored")


def test_criterion_11_exponential_growth():
    for m in range(4, 13):
        assert fermat_cy_moduli(m + 1) > 2 * fermat_cy_moduli(m), m
    _ok(11, "parameter count more than doubles with each dimension step")


@pytest.fixture(scope="module")
def full_catalogs():
    # two independent runs
    catalogs = []
    for _ in range(2):
        cfg = ScanConfig()
        catalogs.append((cfg, scan_all(cfg)))
    return catalogs


def test_criterion_12_determinism_and_round_trip(full_catalogs):
    rendered = [render_catalog(records, "json", cfg) for cfg, records in full_catalogs]
    assert rendered[0] == rendered[1]

    cfg, records = full_catalogs[0]
    meta, back = parse_catalog_json(rendered[0])
    assert back == records

    # expansion of 21^204 against an independent modular exponentiation
    rec = next(r for r in records if (r.torsion.base, r.torsion.exponent) == (21, 204))
    modulus = 10**9 + 7
    expanded = rec.torsion.expand()
    assert expanded % modulus == pow(21, 204, modulus)
    assert len(str(expanded)) == 270
    _ok(12, f"{len(records)} records byte-identical across two runs; "
            "JSON round-trips; 21^204 residue verified")
