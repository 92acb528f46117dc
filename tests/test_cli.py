import json
import math

import pytest

from selinks import ScanConfig, UsageError, scan_all, scan_fermat_cy
from selinks.cli import (
    CSV_HEADER,
    Invocation,
    main,
    parse_catalog_json,
    parse_invocation,
    render_catalog,
    run,
)


def test_parse_invocation_invariants():
    inv = parse_invocation(["invariants", "--weights", "1,2,3", "--degree", "6"])
    assert inv.subcommand == "invariants"
    assert inv.options["weights"] == (1, 2, 3)
    assert inv.options["degree"] == 6
    assert inv.output_format == "table"
    assert inv.output_path is None


def test_parse_invocation_scan():
    inv = parse_invocation(["scan", "hyperbolic", "--m", "3..8", "--format", "json"])
    assert inv.subcommand == "scan"
    assert inv.options["family"] == "hyperbolic"
    assert inv.options["m"] == (3, 8)
    assert inv.output_format == "json"


def test_parse_invocation_usage_errors():
    with pytest.raises(UsageError):
        parse_invocation(["cover", "--k", "0", "--weights", "1,1,1", "--degree", "3"])
    with pytest.raises(UsageError):
        parse_invocation(["invariants", "--weights", "1,2,3"])  # missing --degree
    with pytest.raises(UsageError):
        parse_invocation(["invariants", "--weights", "1,2,3", "--degree", "6", "--bogus"])
    with pytest.raises(UsageError):
        parse_invocation(["scan", "everything"])
    with pytest.raises(UsageError):
        parse_invocation(["scan", "fermat-cy", "--m", "8..3"])
    with pytest.raises(UsageError):
        parse_invocation(["invariants", "--weights", "1,x", "--degree", "6"])


def test_run_invariants(capsys):
    code = run(parse_invocation(["invariants", "--weights", "1,1,1,1", "--degree", "4"]))
    out = capsys.readouterr().out
    assert code == 0
    assert "21" in out
    assert "euclidean" in out


def test_run_invariants_includes_genus(capsys):
    run(parse_invocation(["invariants", "--weights", "1,2,3", "--degree", "6",
                          "--format", "json"]))
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == 2
    assert payload["genus"] == 1
    assert payload["case"] == "euclidean"


def test_main_exit_codes(capsys, tmp_path):
    # usage error
    assert main(["cover", "--k", "0", "--weights", "1,1,1", "--degree", "3"]) == 1
    # integrity error: no quasi-smooth member
    assert main(["invariants", "--weights", "1,2,2", "--degree", "5"]) == 2
    err = capsys.readouterr().err
    assert "quasi-smooth" in err
    # i/o error: unwritable output path
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(["scan", "hyperbolic", "--m", "3..3", "--out", str(missing)]) == 3
    assert main(["ingest", str(tmp_path / "absent.txt")]) == 3
    # success
    assert main(["certify", "--exponents", "3,4,4,4"]) == 0


def test_run_certify(capsys):
    run(parse_invocation(["certify", "--exponents", "3,4,4,4", "--format", "json"]))
    payload = json.loads(capsys.readouterr().out)
    assert payload["reciprocal_sum"] == "13/12"
    assert payload["bound"] == "35/32"
    assert payload["verdict"] is True


def test_run_cover(capsys):
    run(parse_invocation(["cover", "--k", "5", "--weights", "1,2,3", "--degree", "6",
                          "--format", "json"]))
    payload = json.loads(capsys.readouterr().out)
    assert payload["cover"] == "(6,5,10,15;30)"
    assert payload["bp_exponents"] == "5,6,3,2"
    assert payload["torsion"] == "5^2"


def test_run_moduli(capsys):
    run(parse_invocation(["moduli", "--weights", "4,3,3,3", "--degree", "12",
                          "--format", "json"]))
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex_dim"] == 6
    assert payload["real_dim"] == 12


def test_scan_json_matches_library(capsys):
    code = main(["scan", "fermat-cy", "--m", "3..4", "--k-bound", "10",
                 "--format", "json"])
    assert code == 0
    meta, records = parse_catalog_json(capsys.readouterr().out)
    assert meta["bounds"] == {"weight_bound": 60, "k_bound": 10,
                              "m_range": [3, 4], "k_min": 2}
    assert records == scan_fermat_cy(ScanConfig(k_bound=10, m_range=(3, 4)))


def test_scan_euclidean_cli(capsys):
    main(["scan", "euclidean", "--weight-bound", "10", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert [(tuple(r["weights"]), r["degree"], r["monomials"]) for r in payload["rows"]] == [
        ((1, 1, 1), 3, 10),
        ((1, 1, 2), 4, 9),
        ((1, 2, 3), 6, 7),
    ]


def test_catalog_json_round_trip():
    cfg = ScanConfig(k_bound=15, m_range=(3, 4))
    records = scan_all(cfg)
    text = render_catalog(records, "json", cfg)
    meta, back = parse_catalog_json(text)
    assert back == records
    assert render_catalog(back, "json", cfg) == text


def test_catalog_rationals_are_reduced():
    cfg = ScanConfig(k_bound=15, m_range=(3, 4))
    payload = json.loads(render_catalog(scan_all(cfg), "json", cfg))
    for rec in payload["records"]:
        for side in ("left_value", "right_bound"):
            frac = rec["certificate"][side]
            assert math.gcd(frac["num"], frac["den"]) == 1
            assert frac["den"] >= 1


def test_catalog_csv_header_and_shape():
    cfg = ScanConfig(k_bound=8, m_range=(3, 3))
    records = scan_all(cfg)
    text = render_catalog(records, "csv", cfg)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(records) + 1


def test_catalog_table_renders():
    cfg = ScanConfig(k_bound=8, m_range=(3, 3))
    text = render_catalog(scan_all(cfg), "table", cfg)
    assert "euclidean5" in text
    assert "3^6" in text or "hyperbolic" in text


def test_expand_torsion_decimal(capsys):
    main(["scan", "fermat-cy", "--m", "4..4", "--k-bound", "13",
          "--format", "json", "--expand-torsion"])
    payload = json.loads(capsys.readouterr().out)
    rec = [r for r in payload["records"] if r["k"] == 13][0]
    assert rec["torsion"]["decimal"] == str(13**21)


def test_output_file_writing(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    code = main(["scan", "hyperbolic", "--m", "3..3", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    meta, records = parse_catalog_json(out.read_text(encoding="utf-8"))
    assert len(records) == 1
    assert records[0].torsion.expand() == 729


def test_ingest_cli(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1,1;4\n0,1,2;3\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..13", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "line 2" in captured.err
    meta, records = parse_catalog_json(captured.out)
    ks = {r.k for r in records}
    assert 13 in ks and all(math.gcd(k, 4) == 1 for k in ks)


def test_byte_identical_across_runs_and_threads(capsys, monkeypatch):
    # --threads and SELINKS_THREADS are accepted and ignored
    monkeypatch.setenv("SELINKS_THREADS", "not a number")
    outputs = []
    for threads in ([], ["--threads", "4"], ["--threads", "8"]):
        code = main(["scan", "theorem2", "--k-bound", "12", "--format", "json", *threads])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_ingest_cli_isolates_rows(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\nfoo\n1,1;0\n2,2,2;6\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..7", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert [line.split(": ")[1] for line in captured.err.splitlines()] == [
        "line 2", "line 3", "line 4"
    ]
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.k) for r in records} == {((1, 1, 1), k) for k in (2, 4, 5, 7)}


def test_expand_torsion_past_the_digit_limit_exits_4(capsys):
    # 11^13421 (m = 6) has about 13,976 decimal digits
    code = main(["scan", "mixed-canonical", "--m", "3..8", "--expand-torsion"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("resource budget error: 11^13421 ")
    assert "Traceback" not in captured.err


def _catalog_text() -> str:
    cfg = ScanConfig(k_bound=5, m_range=(3, 3))
    return render_catalog(scan_all(cfg), "json", cfg)


def test_parse_catalog_json_rejects_truncated_text():
    text = _catalog_text()
    with pytest.raises(UsageError, match="malformed catalog"):
        parse_catalog_json(text[: len(text) // 2])


def test_parse_catalog_json_names_the_bad_record():
    payload = json.loads(_catalog_text())
    del payload["records"][1]["certificate"]
    with pytest.raises(UsageError, match=r"record 1: KeyError\('certificate'\)"):
        parse_catalog_json(json.dumps(payload))


def test_parse_catalog_json_checks_the_schema():
    payload = json.loads(_catalog_text())
    payload["meta"]["schema"] = "selinks.catalog/2"
    with pytest.raises(UsageError, match="selinks.catalog/2"):
        parse_catalog_json(json.dumps(payload))


def test_invocation_is_plain_data():
    inv = Invocation("certify", {"exponents": (3, 4, 4, 4)}, "table", None)
    assert run(inv) == 0
