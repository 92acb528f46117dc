import math

import pytest

from selinks import (
    ScanConfig,
    UsageError,
    WeightSystem,
    generate_mixed_canonical,
    generate_theorem2_family,
    ingest_weight_list,
    scan_all,
    scan_euclidean_classification,
    scan_fermat_cy,
    scan_hyperbolic,
)

SMALL = ScanConfig(weight_bound=20, k_bound=24, m_range=(3, 5))


def test_scan_config_validation():
    with pytest.raises(UsageError):
        ScanConfig(weight_bound=0)
    with pytest.raises(UsageError):
        ScanConfig(m_range=(2, 8))
    with pytest.raises(UsageError):
        ScanConfig(m_range=(5, 4))
    with pytest.raises(UsageError):
        ScanConfig(k_min=1)


def test_euclidean_classification_rows():
    rows = scan_euclidean_classification(SMALL)
    assert [(r.system.weights, r.system.degree, r.monomials) for r in rows] == [
        ((1, 1, 1), 3, 10),
        ((1, 1, 2), 4, 9),
        ((1, 2, 3), 6, 7),
    ]


def test_euclidean_classification_small_bounds():
    rows = scan_euclidean_classification(ScanConfig(weight_bound=3))
    assert len(rows) == 3  # all classes already have weights <= 3
    rows = scan_euclidean_classification(ScanConfig(weight_bound=1))
    assert [(r.system.weights, r.monomials) for r in rows] == [((1, 1, 1), 10)]


def test_theorem2_family():
    records = generate_theorem2_family(SMALL)
    assert all(r.family_tag == "euclidean5" for r in records)
    assert all(r.link_dimension == 5 for r in records)
    by_key = {(r.l_or_d, r.k): r for r in records}

    rec = by_key[(6, 5)]
    assert (rec.torsion.base, rec.torsion.exponent) == (5, 2)
    assert rec.genus == 1
    assert rec.moduli.complex_dim == 1
    assert rec.certificate.fano

    rec = by_key[(3, 7)]
    assert rec.certificate.bp_sufficient
    assert (rec.torsion.base, rec.torsion.exponent) == (7, 2)

    assert (4, 2) not in by_key  # gcd(2, 4) != 1

    assert {d: (r.paper_min_k, r.literal_min_k) for d, r in
            ((r.l_or_d, r) for r in records)} == {3: (3, 7), 4: (3, 11), 6: (5, 13)}


def test_theorem2_torsion_square_for_every_k():
    records = generate_theorem2_family(SMALL)
    for rec in records:
        assert rec.torsion.exponent == 2
        assert rec.genus == 1
        assert rec.certificate.fano
        assert rec.moduli.complex_dim == 1
        assert math.gcd(rec.k, rec.base.degree) == 1


def test_fermat_cy_records():
    records = scan_fermat_cy(ScanConfig(k_bound=24, m_range=(3, 5)))
    by_key = {(r.m, r.k): r for r in records}

    rec = by_key[(4, 13)]
    assert (rec.torsion.base, rec.torsion.exponent) == (13, 21)
    assert rec.moduli.complex_dim == 19
    assert rec.certificate.bp_sufficient  # 13 > 4*3

    rec = by_key[(5, 21)]
    assert (rec.torsion.base, rec.torsion.exponent) == (21, 204)
    assert rec.moduli.complex_dim == 101
    assert rec.certificate.bp_sufficient

    rec = by_key[(4, 11)]
    assert not rec.certificate.bp_sufficient  # 11 <= 12

    assert all(math.gcd(m, k) == 1 for m, k in by_key)
    assert (4, 8) not in by_key


def test_hyperbolic_records():
    records = scan_hyperbolic(ScanConfig(m_range=(3, 8)))
    assert [(r.m, r.l_or_d, r.k) for r in records] == [
        (m, m + 1, m) for m in range(3, 9)
    ]
    rec = records[0]
    assert rec.torsion.expand() == 729
    assert rec.moduli.complex_dim == 6
    assert rec.moduli.real_dim == 12
    assert rec.genus == 3  # curve genus of the degree-4 base

    # m=3, l=5 window is empty, so no (3, 5, *) records
    assert not [r for r in records if (r.m, r.l_or_d) == (3, 5)]


def test_mixed_canonical_records():
    records = generate_mixed_canonical(ScanConfig(m_range=(3, 8)))
    assert [(r.m, r.k) for r in records] == [(m, 2 * m - 1) for m in range(3, 9)]
    for rec in records:
        cover_exponents = (2 * rec.m - 1,) + (2 * rec.m,) * (rec.m - 1) + (2,)
        assert rec.certificate.bp_sufficient, cover_exponents
    rec = records[0]
    assert rec.base == WeightSystem((1, 1, 3), 6)
    assert (rec.torsion.base, rec.torsion.exponent) == (5, 4)
    assert rec.genus == 2


def test_cross_family_consistency():
    cfg = ScanConfig(k_bound=10, m_range=(3, 3))
    cubic = {r.k: r for r in scan_fermat_cy(cfg)}
    theorem2 = {r.k: r for r in generate_theorem2_family(cfg) if r.l_or_d == 3}
    assert set(cubic) == set(theorem2)
    for k, rec in cubic.items():
        other = theorem2[k]
        assert rec.torsion == other.torsion
        assert rec.genus == other.genus == 1
        assert rec.moduli == other.moduli
        assert rec.certificate == other.certificate


def test_certified_records_are_fano():
    for rec in scan_all(SMALL):
        assert not rec.certificate.bp_sufficient or rec.certificate.fano


def test_scan_determinism_across_runs():
    cfg = ScanConfig(k_bound=12, m_range=(3, 4))
    assert scan_all(cfg) == scan_all(ScanConfig(k_bound=12, m_range=(3, 4)))


def test_ingest_pipeline():
    lines = [
        "# branched covers of small bases",
        "1,1,1,1;4",
        "1,2,3;6",
        "0,1,2;3",
        "1,2,2;5",
        "",
    ]
    result = ingest_weight_list(lines, ScanConfig(k_bound=13, m_range=(3, 4)))
    assert len(result.errors) == 2
    assert result.errors[0].startswith("line 4:")
    assert "positive" in result.errors[0]
    assert result.errors[1].startswith("line 5:")
    assert "quasi-smooth" in result.errors[1]

    assert all(r.family_tag == "ingested" for r in result.records)
    by_key = {(tuple(r.base.weights), r.k): r for r in result.records}
    fermat = by_key[((1, 1, 1, 1), 13)]
    assert (fermat.torsion.base, fermat.torsion.exponent) == (13, 21)
    assert fermat.moduli.complex_dim == 19
    assert fermat.certificate.bp_sufficient
    d6 = by_key[((1, 2, 3), 5)]
    assert (d6.torsion.base, d6.torsion.exponent) == (5, 2)
    assert d6.genus == 1
    # only gcd(k, d) = 1 covers are emitted
    assert all(math.gcd(k, by_key[(w, k)].base.degree) == 1 for w, k in by_key)


def test_ingest_row_with_impossible_genus_is_isolated():
    # (2,2,2;6) passes the quasi-smoothness test but its genus is -5/4
    lines = ["1,1,1;3", "foo", "1,1;0", "2,2,2;6"]
    cfg = ScanConfig(k_bound=7)
    result = ingest_weight_list(lines, cfg)
    assert [e.split(":")[0] for e in result.errors] == ["line 2", "line 3", "line 4"]
    assert "-5/4" in result.errors[2]
    assert result.records == ingest_weight_list(lines[:1], cfg).records
    assert {r.k for r in result.records} == {2, 4, 5, 7}


def test_ingest_matches_generator_up_to_tag():
    import dataclasses

    cfg = ScanConfig(k_bound=13, m_range=(4, 4))
    generated = {r.k: r for r in scan_fermat_cy(cfg)}
    ingested = {
        r.k: r for r in ingest_weight_list(["1,1,1,1;4"], cfg).records
    }
    assert set(generated) == set(ingested)
    for k, rec in ingested.items():
        assert dataclasses.replace(rec, family_tag="fermat_cy") == generated[k]
