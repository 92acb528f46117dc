import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selinks import (
    FamilyRecord,
    IntegrityError,
    ResourceBudgetError,
    ScanConfig,
    UsageError,
    WeightSystem,
    branched_cover,
    generate_mixed_canonical,
    generate_theorem2_family,
    genus,
    ingest_weight_list,
    links,
    moduli_count,
    scan_all,
    scan_euclidean_classification,
    scan_fermat_cy,
    scan_hyperbolic,
    survey,
    topology,
    torsion_hypothesis,
    torsion_order,
)
from selinks.cli import parse_catalog_json, render_catalog

SMALL = ScanConfig(weight_bound=20, k_bound=24, m_range=(3, 5))


def _ingest(lines, cfg, **kwargs):
    """(records, diagnostics) of an ingest run, the diagnostics as reported."""
    errors = []
    return ingest_weight_list(lines, cfg, report=errors.append, **kwargs), errors


def test_scan_config_validation():
    with pytest.raises(UsageError):
        ScanConfig(weight_bound=0)
    with pytest.raises(UsageError):
        ScanConfig(m_range=(2, 8))
    with pytest.raises(UsageError):
        ScanConfig(m_range=(5, 4))
    with pytest.raises(UsageError):
        ScanConfig(k_min=1)
    # m_range is a pair, a tuple or the list a catalog's JSON bounds give
    for m_range in ((3, 4, 5), 3, (3,), "34", {3, 4}):
        with pytest.raises(UsageError, match=r"^m range must be a pair \(lo, hi\), got "):
            ScanConfig(m_range=m_range)
    # a list is kept as a tuple: equal configs compare and hash alike
    listed = ScanConfig(m_range=[3, 4])
    assert type(listed.m_range) is tuple and listed == ScanConfig(m_range=(3, 4))
    assert hash(listed) == hash(ScanConfig(m_range=(3, 4)))
    # each bound is an int, not a float or a bool, before its range is checked
    for bounds in ({"k_bound": 13.0}, {"k_bound": True}, {"m_range": (3.0, 4)}):
        with pytest.raises(TypeError, match=r"^(13\.0|True|3\.0) is not an integer$"):
            ScanConfig(**bounds)


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
    assert tuple(r.system for r in rows) == survey._EUCLIDEAN_BASES  # theorem2's bases
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


def test_every_odd_dimension_holds_a_certified_nontrivial_rational_homology_sphere():
    # the paper's claim in each link dimension the default bounds reach, m
    # 3..8: a cover with a Kähler-Einstein certificate (so a Sasaki-Einstein
    # link) whose torsion k^b is nontrivial
    records = scan_all(ScanConfig())
    certified = collections.Counter(
        rec.link_dimension
        for rec in records
        if rec.certificate.bp_sufficient and rec.torsion.exponent > 0
    )
    assert sorted(certified.items()) == [(5, 115), (7, 26), (9, 34), (11, 12), (13, 18), (15, 4)]


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
    records, errors = _ingest(lines, ScanConfig(k_bound=13, m_range=(3, 4)))
    assert len(errors) == 2
    assert errors[0].startswith("line 4:")
    assert "positive" in errors[0]
    assert errors[1].startswith("line 5:")
    assert "quasi-smooth" in errors[1]
    # the row is refused by the quasi-smoothness gate of links, in its words
    with pytest.raises(IntegrityError) as gate:
        links._quasi_smooth(WeightSystem((1, 2, 2), 5))
    assert errors[1] == f"line 5: {gate.value}"

    assert all(r.family_tag == "ingested" for r in records)
    by_key = {(tuple(r.base.weights), r.k): r for r in records}
    fermat = by_key[((1, 1, 1, 1), 13)]
    assert (fermat.torsion.base, fermat.torsion.exponent) == (13, 21)
    assert fermat.moduli.complex_dim == 19
    assert fermat.certificate.bp_sufficient
    d6 = by_key[((1, 2, 3), 5)]
    assert (d6.torsion.base, d6.torsion.exponent) == (5, 2)
    assert d6.genus == 1
    # only gcd(k, d) = 1 covers are emitted
    assert all(math.gcd(k, by_key[(w, k)].base.degree) == 1 for w, k in by_key)


def test_ingest_row_with_impossible_genus_is_isolated(genus_raises_on):
    genus_raises_on(WeightSystem((1, 2, 3), 6))
    # (2,2,2;6) is (1,1,1;3) and yields its records
    lines = ["1,1,1;3", "foo", "1,1;0", "2,2,2;6", "1,2,3;6"]
    cfg = ScanConfig(k_bound=7)
    records, errors = _ingest(lines, cfg)
    assert [e.split(":")[0] for e in errors] == ["line 2", "line 3", "line 5"]
    assert "-5/4" in errors[2]
    cubic = _ingest(lines[:1], cfg)[0]
    assert {r.k for r in cubic} == {2, 4, 5, 7}
    assert records == sorted(cubic + cubic, key=FamilyRecord.sort_key)


def test_ingest_row_whose_genus_is_not_half_its_betti_number_is_isolated(monkeypatch):
    # records read the genus off b_1 = 2g, and the Orlik-Wagreich genus checks
    # it: a genus one too large on (1,2,3;6), where b_1 = 2, costs that row
    # its records and no other row any of theirs
    real_genus = topology.genus
    monkeypatch.setattr(
        topology, "genus", lambda ws: real_genus(ws) + (ws == WeightSystem((1, 2, 3), 6))
    )
    lines = ["1,1,1;3", "3,2,1;6", "1,1,2;4"]
    cfg = ScanConfig(k_bound=7)
    records, errors = _ingest(lines, cfg)
    assert errors == ["line 2: the orbit curve of (1,2,3;6) has genus 2, but b_1 = 2"]
    kept = _ingest(lines[:1], cfg)[0] + _ingest(lines[2:], cfg)[0]
    assert records == sorted(kept, key=FamilyRecord.sort_key)
    assert {str(r.base) for r in records} == {"(1,1,1;3)", "(1,1,2;4)"}


def test_ingest_labels_a_scaled_row_with_its_reduced_base():
    cfg = ScanConfig(k_bound=7)
    records, errors = _ingest(["1,1,1,1;4", "2,2,2,2;8"], cfg)
    assert not errors
    assert {r.base for r in records} == {WeightSystem((1, 1, 1, 1), 4)}
    once = _ingest(["1,1,1,1;4"], cfg)[0]
    assert records == sorted(once + once, key=FamilyRecord.sort_key)


def test_ingest_matches_generator_up_to_tag():
    cfg = ScanConfig(k_bound=13, m_range=(4, 4))
    generated = {r.k: r for r in scan_fermat_cy(cfg)}
    ingested = {
        r.k: r for r in _ingest(["1,1,1,1;4"], cfg)[0]
    }
    assert set(generated) == set(ingested)
    for k, rec in ingested.items():
        assert rec._replace(family_tag="fermat_cy") == generated[k]


def test_ingest_row_with_a_linear_variable_is_kept():
    # (1,1,4;4) has w_3 = d: a linear term, so its covers are not
    # Brieskorn-Pham and take the klt-sides certificate
    lines = ["1,1,1;3", "foo", "1,1,4;4"]
    cfg = ScanConfig(k_bound=7)
    records, errors = _ingest(lines, cfg)
    assert [e.split(":")[0] for e in errors] == ["line 2"]
    linear = [r for r in records if r.base == WeightSystem((1, 1, 4), 4)]
    assert [r.k for r in linear] == [3, 5, 7]
    assert not any(r.certificate.bp_applicable for r in linear)
    assert {r.torsion.exponent for r in linear} == {0}  # the link is a sphere
    cubic = [r for r in records if r.base == WeightSystem((1, 1, 1), 3)]
    assert cubic == _ingest(lines[:1], cfg)[0]


def _per_pair_recipe(rec, base, literal_certificate):
    """The record of the k-fold cover of `base`, every field computed for
    this (base, k) alone and the certificate the literal way."""
    k = rec.k
    assert math.gcd(k, base.degree) == 1
    recipe = rec._replace(
        base=base.canonical(),
        torsion=torsion_order(k, base),
        moduli=moduli_count(branched_cover(k, base).cover),
        certificate=literal_certificate(k, base),
    )
    assert (recipe.m, recipe.l_or_d, recipe.link_dimension) == (
        base.m, base.degree, 2 * base.m - 1
    )
    assert recipe.genus == (genus(base) if base.m == 3 else None)
    return recipe


def _read_back(records, cfg):
    """The records rendered as a JSON catalog and parsed again."""
    meta, parsed = parse_catalog_json(render_catalog(records, "json", cfg))
    assert parsed == records
    return parsed


def test_records_equal_the_per_pair_recipe(literal_certificate):
    cfg = ScanConfig(k_bound=30, m_range=(3, 6))
    records = _read_back(scan_all(cfg), cfg)
    assert len({(r.base, r.family_tag) for r in records}) == 15
    for rec in records:  # every generated base is already in canonical order
        assert rec == _per_pair_recipe(rec, rec.base, literal_certificate)

    rows = ["3,1,2;6", "2,3,1;8", "2,1,1;4", "1,1,1,1;4", "5,2,2,1;10", "1,3,2,2;9",
            "4,1,1;5", "1,1,4;4"]
    bases = {WeightSystem.parse(row).canonical() for row in rows}
    records, errors = _ingest(rows, cfg)
    assert not errors
    assert sorted((r.base.weights, r.base.degree, r.k) for r in records) == sorted(
        (ws.weights, ws.degree, k)
        for ws in bases
        for k in range(cfg.k_min, cfg.k_bound + 1)
        if math.gcd(k, ws.degree) == 1
    )
    # ingest certifies the sorted base the record names, not the row as typed
    for rec in _read_back(records, cfg):
        assert rec == _per_pair_recipe(rec, rec.base, literal_certificate)


def test_permuted_rows_give_equal_records():
    cfg = ScanConfig(k_bound=13)
    rows = ["1,2,3;6", "3,2,1;6", "2,3,1;6", "5,2,2,1;10", "1,2,5,2;10"]
    records = _ingest(rows, cfg)[0]
    by_row = [_ingest([row], cfg)[0] for row in rows]
    assert by_row[0] and by_row[0] == by_row[1] == by_row[2]
    assert by_row[3] and by_row[3] == by_row[4]
    assert records == sorted(sum(by_row, []), key=FamilyRecord.sort_key)
    # (1,2,3;6) at k = 5: the witness indexes the sorted weights
    witnesses = {r.certificate.limiting_witness for r in by_row[1] if r.k == 5}
    assert witnesses == {r.certificate.limiting_witness for r in by_row[0] if r.k == 5}


def test_record_budget_at_the_limit_and_past_it():
    # (1,1,1;3) has 50,000 branch orders coprime to 3 in 2..75001
    base = WeightSystem((1, 1, 1), 3)
    assert survey.CATALOG_RECORD_LIMIT == 50_000
    assert len(survey._branch_orders(base, range(2, 75002))) == survey.CATALOG_RECORD_LIMIT
    with pytest.raises(ResourceBudgetError, match="more than 50000 records"):
        survey._branch_orders(base, range(2, 75003))
    # the count stops at the limit, so a huge range is refused at once
    with pytest.raises(ResourceBudgetError, match="k = 75002"):
        survey._branch_orders(base, range(2, 10**12))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    degree=st.integers(1, 60),
    lo=st.integers(2, 90),
    width=st.integers(0, 90),
)
def test_branch_orders_are_the_k_that_meet_the_torsion_hypothesis(weights, degree, lo, width):
    base = WeightSystem(tuple(weights), degree)  # reduced on construction
    ks = range(lo, lo + width)
    oracle = [k for k in ks if torsion_hypothesis(k, base)]
    limit = survey.CATALOG_RECORD_LIMIT
    for spent in (0, limit - len(oracle)):  # the last order at the limit
        assert survey._branch_orders(base, ks, spent) == oracle
        assert survey._branch_orders(base, list(ks), spent) == oracle
    if oracle:  # one past the limit: the last order is the one refused
        with pytest.raises(ResourceBudgetError, match=rf"\), k = {oracle[-1]}\)$"):
            survey._branch_orders(base, ks, limit - len(oracle) + 1)


def test_a_scan_past_the_record_budget_builds_no_record(monkeypatch):
    cfg = ScanConfig(k_bound=13, m_range=(3, 4))
    count = len(scan_fermat_cy(cfg))  # k coprime to 3 and to 4
    monkeypatch.setattr(survey, "CATALOG_RECORD_LIMIT", count)
    assert len(scan_fermat_cy(cfg)) == count

    def unreachable(*args):
        raise AssertionError("a record was built")

    monkeypatch.setattr(survey, "CATALOG_RECORD_LIMIT", count - 1)
    monkeypatch.setattr(survey, "_records", unreachable)
    with pytest.raises(ResourceBudgetError, match="records is refused"):
        scan_fermat_cy(cfg)


@pytest.mark.parametrize("scan", [scan_fermat_cy, scan_hyperbolic, generate_mixed_canonical])
def test_the_m_budget_at_the_limit_and_past_it(scan, monkeypatch):
    assert survey.SCAN_M_LIMIT == 32
    at_limit = scan(ScanConfig(k_bound=63, m_range=(32, 32)))
    assert at_limit and {r.m for r in at_limit} == {32}

    def unreachable(*args):
        raise AssertionError("a base was built")

    monkeypatch.setattr(survey, "WeightSystem", unreachable)
    for m_range in ((32, 33), (33, 33), (3, 10**9)):
        with pytest.raises(ResourceBudgetError, match="the limit is 32 variables"):
            scan(ScanConfig(k_bound=63, m_range=m_range))


def test_the_record_budget_counts_a_whole_ingest_run(monkeypatch):
    # k in 2..7: four records of (1,1,1;3), three of (1,1,1,1;4)
    rows = ["1,1,1;3", "1,1,1,1;4"]
    cfg = ScanConfig(k_bound=7)
    monkeypatch.setattr(survey, "CATALOG_RECORD_LIMIT", 7)
    assert len(_ingest(rows, cfg)[0]) == 7
    monkeypatch.setattr(survey, "CATALOG_RECORD_LIMIT", 6)
    with pytest.raises(ResourceBudgetError, match=r"passed at \(1,1,1,1;4\), k = 7"):
        _ingest(rows, cfg)


def test_ingest_row_past_the_bitset_budget_is_isolated():
    rows = ["1,1,1;3", "1,2,4;100000001"]
    records, errors = _ingest(rows, ScanConfig(k_bound=7))
    assert [e.split(":")[0] for e in errors] == ["line 2"]
    assert "bitset cells" in errors[0]
    assert records == _ingest(rows[:1], ScanConfig(k_bound=7))[0]


def test_ingest_reports_a_line_that_is_not_utf8_and_keeps_the_others():
    cfg = ScanConfig(k_bound=5)
    records, errors = _ingest([b"1,1,1;3", b"\xff", b"1,1,2;4"], cfg)
    assert len(errors) == 1
    assert errors[0].startswith("line 2: not UTF-8 text (")
    assert records == _ingest(["1,1,1;3", "", "1,1,2;4"], cfg)[0]
    assert {(r.base.weights, r.k) for r in records} == {
        ((1, 1, 1), 2), ((1, 1, 1), 4), ((1, 1, 1), 5), ((1, 1, 2), 3), ((1, 1, 2), 5)
    }


@pytest.mark.parametrize("first", ["\ufeff1,1,1;3", b"\xef\xbb\xbf1,1,1;3"])
def test_ingest_drops_a_byte_order_mark_opening_the_first_line(first):
    cfg = ScanConfig(k_bound=5)
    records, errors = _ingest([first, "1,1,2;4"], cfg)
    assert errors == []
    assert records == _ingest(["1,1,1;3", "1,1,2;4"], cfg)[0]
    # a mark anywhere else is not whitespace: the row is malformed
    later = _ingest(["1,1,2;4", first], cfg)[1]
    assert [e.split(":")[0] for e in later] == ["line 2"]


def test_ingest_reports_each_failing_row_before_it_reads_the_next(genus_raises_on):
    # the diagnostics received when each line is pulled: every way a row
    # fails is reported as it fails, none held until the run ends
    genus_raises_on(WeightSystem((1, 2, 3), 6))
    rows = ["1,1,1;3", "foo", b"\xff", "1,2,2;5", "3,2,1;6", "1,1,2;4", "1,1;0"]
    errors, seen = [], []

    def pulled():
        for row in rows:
            seen.append(len(errors))
            yield row

    cfg = ScanConfig(k_bound=5)
    records = ingest_weight_list(pulled(), cfg, report=errors.append)
    assert seen == [0, 0, 1, 2, 3, 4, 4]
    assert [e.split(":")[0] for e in errors] == ["line 2", "line 3", "line 4", "line 5", "line 7"]
    assert "-5/4" in errors[3]
    assert records == _ingest(["1,1,1;3", "1,1,2;4"], cfg)[0]
