"""The catalog writers against their oracles.

`render_catalog(..., "json", ...)` writes each record field by field from
`_FIELDS`, and writes the fields that do not change with k once per base.
The oracle spells each record out by hand as nested dicts, from the
`FamilyRecord` attributes and not from `_FIELDS`, and lets
`json.dumps(indent=2)` write it; the two must give the same text.  The CSV
and table oracles write every cell of every record, one record at a time,
the CSV one through `csv.writer`.  The catalogs the benchmark writes must
also keep the sha256 it pins, and their table and CSV views those of
pinned_renderings.json.
"""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selinks import (
    FactoredPower,
    FamilyRecord,
    KeCertificate,
    ModuliCount,
    ScanConfig,
    WeightSystem,
    generate_theorem2_family,
    ingest_weight_list,
    scan_all,
    scan_fermat_cy,
    scan_hyperbolic,
)
from selinks.cli import main, parse_catalog_json, render_catalog
from selinks.writer import _TABLE, CSV_HEADER, _catalog_meta

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FAMILY_TAGS = ("euclidean5", "fermat_cy", "hyperbolic", "mixed_canonical", "ingested")


def fraction(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def record_to_json(rec: FamilyRecord, expand_torsion: bool = False) -> dict:
    """One record as the nested dicts its JSON form spells out."""
    torsion = {"base": rec.torsion.base, "exponent": rec.torsion.exponent}
    if expand_torsion:
        torsion["decimal"] = str(rec.torsion.base**rec.torsion.exponent)
    cert = rec.certificate
    return {
        "family": rec.family_tag,
        "m": rec.m,
        "k": rec.k,
        "l_or_d": rec.l_or_d,
        "base": {"weights": list(rec.base.weights), "degree": rec.base.degree},
        "link_dimension": rec.link_dimension,
        "torsion": torsion,
        "genus": rec.genus,
        "moduli": {
            "complex": rec.moduli.complex_dim,
            "real": rec.moduli.real_dim,
            "h0_degree": rec.moduli.h0_degree,
            "h0_weights_sum": rec.moduli.h0_weights_sum,
        },
        "certificate": {
            "fano": cert.fano,
            "necessary_klt": cert.necessary_klt,
            "bp_applicable": cert.bp_applicable,
            "bp_sufficient": cert.bp_sufficient,
            "gc_assumed": cert.gc_assumed,
            "left_value": fraction(cert.left_value),
            "right_bound": fraction(cert.right_bound),
            "limiting_witness": cert.limiting_witness,
        },
        "paper_min_k": rec.paper_min_k,
        "literal_min_k": rec.literal_min_k,
    }


def oracle(records, cfg, expand_torsion=False) -> str:
    payload = {
        "meta": _catalog_meta(cfg, expand_torsion, len(records)),
        "records": [record_to_json(rec, expand_torsion) for rec in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def csv_cells(rec: FamilyRecord, expand_torsion: bool = False) -> dict:
    """One record's CSV cells by column, before csv.writer writes them."""
    cert = rec.certificate
    torsion = rec.torsion.base**rec.torsion.exponent if expand_torsion else rec.torsion
    return {
        "family": rec.family_tag,
        "m": rec.m,
        "k": rec.k,
        "l_or_d": rec.l_or_d,
        "weights": " ".join(map(str, rec.base.weights)),
        "degree": rec.base.degree,
        "link_dimension": rec.link_dimension,
        "torsion": str(torsion),
        "genus": rec.genus,
        "moduli_complex": rec.moduli.complex_dim,
        "moduli_real": rec.moduli.real_dim,
        "h0_degree": rec.moduli.h0_degree,
        "h0_weights_sum": rec.moduli.h0_weights_sum,
        "fano": cert.fano,
        "necessary_klt": cert.necessary_klt,
        "bp_applicable": cert.bp_applicable,
        "bp_sufficient": cert.bp_sufficient,
        "gc_assumed": cert.gc_assumed,
        "left_value": f"{cert.left_value.numerator}/{cert.left_value.denominator}",
        "right_bound": f"{cert.right_bound.numerator}/{cert.right_bound.denominator}",
        "limiting_witness": cert.limiting_witness,
        "paper_min_k": rec.paper_min_k,
        "literal_min_k": rec.literal_min_k,
    }


def csv_oracle(records, expand_torsion=False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        cells = csv_cells(rec, expand_torsion)
        assert tuple(cells) == CSV_HEADER
        writer.writerow(cells.values())
    return buf.getvalue()


def table_oracle(records, expand_torsion=False) -> str:
    """The table view: each cell of `_TABLE` in its column, one space apart."""
    head = " ".join(f"{header:{align}{width}}" for header, width, align, _ in _TABLE)
    lines = [head, "-" * len(head)]
    for rec in records:
        cells = dict(csv_cells(rec, expand_torsion), base=rec.base)
        texts = ["-" if cells[key] is None else str(cells[key]) for *_, key in _TABLE]
        lines.append(" ".join(f"{text:{a}{w}}" for text, (_, w, a, _) in zip(texts, _TABLE)))
    return "\n".join(lines) + "\n"


def assert_writer_is_the_oracle(records, cfg, expand_torsion=False):
    expected = {
        "json": oracle(records, cfg, expand_torsion),
        "csv": csv_oracle(records, expand_torsion),
        "table": table_oracle(records, expand_torsion),
    }
    for fmt, text in expected.items():
        written = render_catalog(records, fmt, cfg, expand_torsion)
        if written != text:
            # name the first difference: a diff of two catalogs takes minutes
            at = next(
                (i for i, (a, b) in enumerate(zip(written, text)) if a != b),
                min(len(written), len(text)),
            )
            near = slice(max(at - 60, 0), at + 60)
            pytest.fail(
                f"{fmt} writer and oracle differ at character {at}: "
                f"{written[near]!r} against {text[near]!r}"
            )


def test_every_family_at_k_bound_400():
    cfg = ScanConfig(k_bound=400, m_range=(3, 10))
    records = scan_all(cfg)
    assert len(records) == 2495
    assert_writer_is_the_oracle(records, cfg)


def test_the_benchmark_ingest_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import ingest_rows

    try:
        cfg = ScanConfig()
        records = ingest_weight_list(ingest_rows(0).lines, cfg, report=lambda _: None)
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    assert len(records) == 5291
    assert_writer_is_the_oracle(records, cfg)


def test_the_benchmark_catalogs_keep_their_pinned_sha256(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import ingest_rows

    try:
        lines = ingest_rows(0).lines
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    rows = tmp_path / "ingest-rows.txt"
    rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs = {
        f"families/{family}": ["scan", family, "--k-bound", "400", "--m", "3..10"]
        for family in ("fermat-cy", "theorem2", "hyperbolic", "mixed-canonical")
    }
    runs["euclidean/euclidean"] = ["scan", "euclidean", "--weight-bound", "150"]
    runs["ingest/ingest/seed=0"] = ["ingest", str(rows)]
    pinned = json.loads((PERFBENCH / "baseline_sha256.json").read_text(encoding="utf-8"))
    out = tmp_path / "catalog.json"
    for key, args in runs.items():
        assert main([*args, "--format", "json", "--out", str(out)]) == 0, key
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == pinned["catalogs"][key], key
        if key != "euclidean/euclidean":  # a list of rows, not of records
            text = out.read_text(encoding="utf-8")
            meta, records = parse_catalog_json(text)
            cfg = ScanConfig(**meta["bounds"])
            assert render_catalog(records, "json", cfg, meta["expand_torsion"]) == text, key


def test_a_child_writes_a_pinned_catalog_to_its_own_stdout():
    # the test above writes through --out in process; here the catalog goes
    # through the other branch of the writer, a real stdout of its own, in
    # many slices (1.7 MB)
    root = PERFBENCH.parent
    done = subprocess.run(
        [sys.executable, "-m", "selinks", "scan", "fermat-cy", "--k-bound", "400",
         "--m", "3..10", "--format", "json"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    pinned = json.loads((PERFBENCH / "baseline_sha256.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert digest == pinned["catalogs"]["families/fermat-cy"]


def test_the_table_and_csv_views_keep_their_pinned_sha256(monkeypatch, tmp_path, capsys):
    # JSON parsing reads back only the JSON view, so the bytes of the other
    # two, and the seed-0 ingest row diagnostics (malformed rows and rows
    # without a quasi-smooth member), are pinned too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import ingest_rows

    try:
        lines = ingest_rows(0).lines
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    rows = tmp_path / "ingest-rows.txt"
    rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pinned = json.loads((Path(__file__).with_name("pinned_renderings.json")).read_text())
    runs = {
        "families/fermat-cy": ["scan", "fermat-cy", "--k-bound", "400", "--m", "3..10"],
        "ingest/seed=0": ["ingest", str(rows)],
    }
    digests = {}
    for key, args in runs.items():
        for fmt in ("table", "csv"):
            assert main([*args, "--format", fmt]) == 0, (key, fmt)
            out, err = capsys.readouterr()
            digests[f"{key}/{fmt}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if key.startswith("ingest"):
                digests[f"{key}/stderr"] = hashlib.sha256(err.encode("utf-8")).hexdigest()
    assert digests == pinned["renderings"]


@pytest.mark.parametrize(
    "scan, cfg",
    [
        (scan_fermat_cy, ScanConfig(k_bound=30, m_range=(3, 5))),
        (scan_hyperbolic, ScanConfig(k_bound=20, m_range=(3, 4))),
        (scan_all, ScanConfig(k_bound=12, m_range=(3, 4))),
    ],
)
def test_expanded_torsion(scan, cfg):
    records = scan(cfg)
    assert records
    assert_writer_is_the_oracle(records, cfg, expand_torsion=True)


@pytest.mark.parametrize(
    "cfg", [ScanConfig(weight_bound=1, k_bound=1, m_range=(3, 3)), ScanConfig()]
)
@pytest.mark.parametrize("expand_torsion", [False, True])
def test_an_empty_catalog(cfg, expand_torsion):
    text = render_catalog([], "json", cfg, expand_torsion)
    assert '"records": []\n}\n' in text
    assert text == oracle([], cfg, expand_torsion)


def test_every_combination_of_the_certificate_flags():
    cfg = ScanConfig(k_bound=5, m_range=(3, 3))
    rec = scan_fermat_cy(cfg)[0]
    # (bp_applicable, left_value, right_bound): the certificate reads its
    # Fano sign and verdict off the sides, so these reach every pair of them
    sides = [
        (False, Fraction(-7, 2), Fraction(3)),
        (False, Fraction(1, 3), Fraction(3)),
        (True, Fraction(1), Fraction(2)),
        (True, Fraction(3, 2), Fraction(5, 4)),
        (True, Fraction(3, 2), Fraction(2)),
    ]
    records = [
        rec._replace(certificate=KeCertificate(nklt, bp, left, right, "k*w[1]"))
        for nklt, (bp, left, right) in itertools.product((False, True), sides)
    ]
    flags = {
        (cert.fano, cert.necessary_klt, cert.bp_applicable, cert.bp_sufficient)
        for cert in (r.certificate for r in records)
    }
    # a verdict holds only on a Brieskorn-Pham cover that is Fano
    assert flags == {
        (fano, nklt, bp, sufficient)
        for fano, nklt, bp, sufficient in itertools.product((False, True), repeat=4)
        if not sufficient or (fano and bp)
    }
    assert len(flags) == 10
    assert_writer_is_the_oracle(records, cfg)


def test_bases_that_share_family_m_and_d_interleave_by_k():
    # the sort key puts k before the weights, so these records alternate
    # between their bases; each must keep its own constant fields
    cfg = ScanConfig(k_bound=30)
    records = ingest_weight_list(["1,2,3;6", "1,1,2;6", "2,2,1;6"], cfg, report=pytest.fail)
    assert [rec.base.weights for rec in records[:3]] == [(1, 1, 2), (1, 2, 2), (1, 2, 3)]
    # the same stored values on two bases of one m and d
    twins = [rec._replace(base=WeightSystem((1, 2, 2), 6)) for rec in records[-3::-3]]
    records = sorted(records + twins, key=FamilyRecord.sort_key)
    assert_writer_is_the_oracle(records, cfg)
    assert_writer_is_the_oracle(records, cfg, expand_torsion=True)


@pytest.mark.parametrize(
    "change",
    [
        {"family_tag": "hyperbolic"},
        {"torsion": FactoredPower(7, 8)},  # genus 4, not 1
        {"moduli": ModuliCount(9, 7)},
        {"paper_min_k": 5},
        {"literal_min_k": None},
    ],
    ids=lambda change: next(iter(change)),
)
def test_records_that_differ_in_one_value_of_their_base(change):
    # every key part a constant field reads, changed alone, k kept
    cfg = ScanConfig(k_bound=13)
    rec = generate_theorem2_family(cfg)[3]
    assert (rec.base, rec.k, rec.torsion.exponent, rec.literal_min_k) == (
        WeightSystem((1, 1, 1), 3), 7, 2, 7
    )
    records = [rec, rec._replace(**change), rec]
    assert_writer_is_the_oracle(records, cfg)
    assert_writer_is_the_oracle(records[::-1], cfg, expand_torsion=True)


def test_records_read_back_share_templates_by_value():
    # parse_catalog_json builds each distinct base once, so its records share
    # it; rebuilt one per record, equal bases are distinct objects, and must
    # still be written as one base
    cfg = ScanConfig(k_bound=30, m_range=(3, 4))
    text = render_catalog(scan_all(cfg), "json", cfg)
    read = parse_catalog_json(text)[1]
    assert len({id(rec.base) for rec in read}) == len({rec.base for rec in read})
    back = [rec._replace(base=WeightSystem(*rec.base)) for rec in read]
    same = [rec for rec in back if rec.base == back[0].base]
    assert len(same) > 1 and same[0].base is not same[1].base
    assert render_catalog(back, "json", cfg) == text
    assert_writer_is_the_oracle(back, cfg)


big_ints = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, 2**64 + 1, -(2**64), 10**30])
positive = st.integers(1, 2**70)
fractions = st.builds(Fraction, big_ints, positive)
records = st.builds(
    FamilyRecord,
    family_tag=st.sampled_from(FAMILY_TAGS),
    base=st.builds(WeightSystem, st.lists(positive, min_size=2, max_size=12), positive),
    torsion=st.builds(FactoredPower, st.integers(2, 2**70), st.integers(0, 40)),
    moduli=st.builds(ModuliCount, big_ints, big_ints),
    certificate=st.builds(
        KeCertificate,
        st.booleans(),
        st.booleans(),
        fractions,
        fractions,
        st.text(max_size=12),
    ),
    paper_min_k=st.none() | big_ints,
    literal_min_k=st.none() | big_ints,
)
configs = st.builds(
    ScanConfig,
    weight_bound=positive,
    k_bound=positive,
    m_range=st.tuples(st.integers(3, 9), st.integers(9, 2**70)),
    k_min=st.integers(2, 2**70),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(records=st.lists(records, max_size=4), cfg=configs, expand_torsion=st.booleans())
def test_random_records(records, cfg, expand_torsion):
    assert_writer_is_the_oracle(records, cfg, expand_torsion)
