import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from selinks import (
    FamilyRecord,
    ResourceBudgetError,
    ScanConfig,
    UsageError,
    WeightSystem,
    cli,
    reader,
    scan_all,
    scan_fermat_cy,
    writer,
)
from selinks.cli import main, parse_catalog_json, render_catalog
from selinks.writer import _TABLE, CSV_HEADER


def test_parse_invocation_invariants():
    ns = cli._build_parser().parse_args(["invariants", "--weights", "1,2,3", "--degree", "6"])
    assert ns.command == "invariants"
    # the four single-system commands share one handler, which loads theirs
    assert ns.handler is cli._run_single
    assert ns.weights == (1, 2, 3)
    assert ns.degree == 6
    assert ns.format == "table"
    assert ns.out is None


def test_parse_invocation_scan():
    ns = cli._build_parser().parse_args(["scan", "hyperbolic", "--m", "3..8", "--format", "json"])
    assert ns.command == "scan"
    assert ns.handler is cli._run_scan
    assert ns.family == "hyperbolic"
    assert ns.m == (3, 8)
    assert ns.format == "json"


def test_parse_invocation_usage_errors(capsys):
    for argv, message in [
        (["cover", "--k", "0", "--weights", "1,1,1", "--degree", "3"], "branch order k"),
        # k is refused before the quasi-smoothness gate (exit 2) is reached
        (["cover", "--k", "1", "--weights", "1,2,2", "--degree", "5"], "branch order k"),
        (["invariants", "--weights", "1,2,3"], "required: --degree"),
        (["invariants", "--weights", "1,2,3", "--degree", "6", "--bogus"], "--bogus"),
        (["scan", "everything"], "invalid choice"),
        (["scan", "fermat-cy", "--m", "8..3"], "ascending"),
        (["invariants", "--weights", "1,x", "--degree", "6"], "comma-separated"),
        # values below 1 are refused by WeightSystem and ScanConfig
        (["invariants", "--weights", "1,2,3", "--degree", "0"], "degree must be positive"),
        (["moduli", "--weights", "1,2,3", "--degree", "-6"], "degree must be positive"),
        (["scan", "fermat-cy", "--weight-bound", "0"], "got weight_bound 0 and k_bound 60"),
        (["scan", "theorem2", "--k-bound", "-5"], "got weight_bound 60 and k_bound -5"),
        (["scan", "theorem2", "--k-bound", "x"], "invalid int value"),
    ]:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and message in captured.err, argv


def test_run_invariants(capsys):
    code = main(["invariants", "--weights", "1,1,1,1", "--degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "21" in out
    assert "euclidean" in out


def test_run_invariants_includes_genus(capsys):
    main(["invariants", "--weights", "1,2,3", "--degree", "6", "--format", "json"])
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
    main(["certify", "--exponents", "3,4,4,4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["reciprocal_sum"] == "13/12"
    assert payload["bound"] == "35/32"
    assert payload["verdict"] is True


def test_run_cover(capsys):
    main(["cover", "--k", "5", "--weights", "1,2,3", "--degree", "6", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["cover"] == "(6,5,10,15;30)"
    assert payload["bp_exponents"] == "5,6,3,2"
    assert payload["torsion"] == "5^2"


def test_invariants_of_a_scaled_system_are_those_of_the_reduced_one(capsys):
    # (2,2,2;4) is the quadric class (1,1,1;2), genus 0
    assert main(["invariants", "--weights", "2,2,2", "--degree", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "(1,1,1;2)"
    assert payload["genus"] == 0
    assert payload["betti"] == 0


def test_cover_of_a_scaled_system_reports_the_reduced_base(capsys):
    argv = ["cover", "--k", "2", "--weights", "2,2,2", "--degree", "6", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == "(1,1,1;3)"
    assert payload["bp_exponents"] == "2,3,3,3"
    assert payload["torsion_hypothesis"] is True
    assert "normalized_base" not in payload
    assert "coprime" not in payload  # torsion_hypothesis is the one flag


def test_cover_refuses_a_class_without_quasi_smooth_member(capsys):
    # invariants refuses (1,2,2;5); cover must not print a torsion order for
    # it, nor moduli a parameter count
    for command in (["invariants"], ["cover", "--k", "3"], ["moduli"]):
        assert main([*command, "--weights", "1,2,2", "--degree", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("integrity error: (1,2,2;5) has no quasi-smooth member")


def test_run_moduli(capsys):
    main(["moduli", "--weights", "4,3,3,3", "--degree", "12", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex_dim"] == 6
    assert payload["real_dim"] == 12


def test_the_single_system_commands_keep_their_pinned_output(capsys):
    # the tests above look up keys; this pins the bytes, key order included
    pinned = json.loads(Path(__file__).with_name("pinned_renderings.json").read_text())
    printed = {}
    for command in pinned["commands"]:
        assert main(command.split()) == 0, command
        printed[command] = capsys.readouterr().out
    assert printed == pinned["commands"]
    assert len(printed) == 14


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


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("csv", "weights,degree,monomials\n1 1 1,3,10\n1 1 2,4,9\n1 2 3,6,7\n"),
        (
            "table",
            "weights        d   n\n"
            "1,1,1          3  10\n"
            "1,1,2          4   9\n"
            "1,2,3          6   7\n",
        ),
    ],
)
def test_scan_euclidean_cli_bytes(fmt, text, capsys):
    assert main(["scan", "euclidean", "--weight-bound", "10", "--format", fmt]) == 0
    assert capsys.readouterr().out == text


def test_catalog_json_round_trip():
    cfg = ScanConfig(k_bound=15, m_range=(3, 4))
    records = scan_all(cfg)
    text = render_catalog(records, "json", cfg)
    meta, back = parse_catalog_json(text)
    assert back == records
    assert render_catalog(back, "json", cfg) == text
    # the same JSON in another layout reads back to equal records
    assert parse_catalog_json(json.dumps(json.loads(text))) == (meta, records)


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
    with pytest.raises(UsageError, match="unknown catalog format 'xml'"):
        render_catalog([], "xml", cfg)
    with pytest.raises(UsageError, match="unknown format 'xml'"):
        cli.render_euclidean_rows([], "xml")


def test_catalog_table_keeps_every_cell_apart():
    # torsion, mu and real overflow their columns here, and False fills klt
    cfg = ScanConfig(k_bound=60, m_range=(18, 20))
    records = scan_fermat_cy(cfg)
    lines = render_catalog(records, "table", cfg).splitlines()
    assert len(lines) == len(records) + 2
    columns = len(_TABLE)
    assert len(lines[0].split()) == columns
    for line in lines[2:]:
        assert len(line.split()) == columns, line
    assert not any("FalseTrue" in line or "TrueFalse" in line for line in lines)


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


@pytest.mark.parametrize(
    "text",
    # three slices and a partial one, with a character of two UTF-8 bytes;
    # and nothing
    ["catalog é\n" * (3 * cli._WRITE_SLICE // 10 + 7), ""],
    ids=["slices", "empty"],
)
def test_the_output_reaches_a_file_and_stdout_byte_for_byte(text, tmp_path, capsysbinary):
    out = tmp_path / "out.txt"
    cli._write_output(text, str(out))
    assert out.read_bytes() == text.encode("utf-8")
    cli._write_output(text, None)
    assert capsysbinary.readouterr().out == text.encode("utf-8")


def test_writing_a_catalog_holds_no_second_copy(tmp_path):
    # the text layer encodes what one write gives it: a whole 8 MiB text
    # would be a second 8 MiB
    text = "0123456789abcdef" * (1 << 19)
    tracemalloc.start()
    try:
        cli._write_output(text, str(tmp_path / "big.txt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (tmp_path / "big.txt").stat().st_size == len(text)


def test_writing_the_row_diagnostics_holds_no_second_copy(tmp_path, monkeypatch):
    # 65,536 diagnostics of 128 characters: one joined write would be a
    # second 8 MiB, and a write per row 65,536 writes
    errors = [f"line {n}: {'x' * 128}"[:128] for n in range(1 << 16)]
    expected = "".join(f"ingest: {message}\n" for message in errors)

    class Sink:
        def __init__(self):
            self.digest, self.writes = hashlib.sha256(), 0

        def write(self, text):
            self.digest.update(text.encode("ascii"))
            self.writes += 1

    def reports(lines, cfg, *, report, expand_torsion):
        for message in errors:
            report(message)
        return []

    sink = Sink()
    monkeypatch.setattr(cli, "ingest_weight_list", reports)
    monkeypatch.setattr(sys, "stderr", sink)
    (tmp_path / "bases.txt").write_bytes(b"")
    ns = cli._build_parser().parse_args(["ingest", str(tmp_path / "bases.txt")])
    tracemalloc.start()
    try:
        cli._run_ingest(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode("ascii")).hexdigest()
    assert sink.writes <= len(errors) // 1000


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


def test_byte_identical_across_runs(capsys, monkeypatch):
    # SELINKS_THREADS is not read
    monkeypatch.setenv("SELINKS_THREADS", "not a number")
    outputs = []
    for _ in range(2):
        code = main(["scan", "theorem2", "--k-bound", "12", "--format", "json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [["scan", "theorem2"], ["ingest", "rows.txt"]])
def test_threads_is_not_an_option(command, capsys):
    assert main([*command, "--threads", "4"]) == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --threads 4\n"


def test_a_k_range_below_2_is_refused_by_the_scan_config(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n", encoding="utf-8")
    assert main(["ingest", str(src), "--k-range", "1..5"]) == 1
    assert capsys.readouterr().err == "usage error: k_min must be at least 2, got 1\n"


def test_ingest_cli_isolates_rows(tmp_path, capsys, genus_raises_on):
    # (2,2,2;6) is (1,1,1;3)
    genus_raises_on(WeightSystem((1, 2, 3), 6))
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\nfoo\n1,1;0\n2,2,2;6\n1,2,3;6\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..7", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert [line.split(": ")[1] for line in captured.err.splitlines()] == [
        "line 2", "line 3", "line 5"
    ]
    meta, records = parse_catalog_json(captured.out)
    assert sorted((r.base.weights, r.k) for r in records) == sorted(
        2 * [((1, 1, 1), k) for k in (2, 4, 5, 7)]
    )


def test_ingest_cli_labels_a_scaled_row_with_its_reduced_base(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1,1;4\n2,2,2,2;8\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "5..5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    meta, records = parse_catalog_json(captured.out)
    assert [(r.base.weights, r.base.degree, r.k, str(r.torsion)) for r in records] == 2 * [
        ((1, 1, 1, 1), 4, 5, "5^21")
    ]


def test_ingest_cli_keeps_a_linear_variable_row(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\nfoo\n1,1,4;4\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..7", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert [line.split(": ")[1] for line in captured.err.splitlines()] == ["line 2"]
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.k) for r in records} == {
        ((1, 1, 1), k) for k in (2, 4, 5, 7)
    } | {((1, 1, 4), k) for k in (3, 5, 7)}


def test_ingest_cli_reports_a_row_past_the_digit_limit_under_expand_torsion(tmp_path, capsys):
    # (1,...,1;7) in seven variables has b = 39990: 2^39990 already passes the limit
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n1,1,1,1,1,1,1;7\n", encoding="utf-8")
    code = main(["ingest", str(src), "--expand-torsion", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("ingest: line 2: 60^39990 has more than ")
    assert len(captured.err.splitlines()) == 1
    meta, records = parse_catalog_json(captured.out)
    assert meta["expand_torsion"]
    assert {(r.base.weights, r.base.degree) for r in records} == {((1, 1, 1), 3)}
    assert [r.k for r in records] == [k for k in range(2, 61) if k % 3]


def test_expand_torsion_past_the_digit_limit_exits_4(capsys):
    # 11^13421 (m = 6) has about 13,976 decimal digits
    code = main(["scan", "mixed-canonical", "--m", "3..8", "--expand-torsion"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("resource budget error: 11^13421 ")
    assert "Traceback" not in captured.err


def test_the_default_digit_limit_applies_while_the_interpreter_limit_is_off(
    digit_limit_off, tmp_path, capsys
):
    # with no limit, 3^348678441 used to be computed for minutes
    code = main(["scan", "fermat-cy", "--k-bound", "4", "--m", "10..10", "--expand-torsion"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == (
        "resource budget error: 3^348678441 has more than 4300 decimal digits, "
        "the default int-to-str limit\n"
    )
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n" + ",".join(["1"] * 10) + ";10\n", encoding="utf-8")
    code = main(["ingest", str(src), "--expand-torsion", "--k-range", "2..5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "ingest: line 2: 3^348678441 has more than 4300 decimal digits, "
        "the default int-to-str limit\n"
    )
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.k) for r in records} == {((1, 1, 1), k) for k in (2, 4, 5)}


def test_moduli_past_the_counting_budget_exits_4(capsys):
    code = main(["moduli", "--weights", "1,1,1", "--degree", "1000000000"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("resource budget error: counting monomials of degree ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_ingest_cli_reports_a_row_past_the_counting_work_budget(tmp_path, capsys):
    # the moduli count of (1^21;999999) counts on one table of the base, in
    # degree 999999 over 21 weights: within the table budget, past the update
    # budget
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n" + ",".join(["1"] * 21) + ";999999\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "ingest: line 2: counting monomials of degree 999999 in 21 weights makes "
        "21000000 table updates, more than the limit of 20000000\n"
    )
    assert len(captured.err.splitlines()) == 1
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.base.degree, r.k) for r in records} == {((1, 1, 1), 3, 2)}


# the weights of a loop polynomial of degree 746495 in 16 variables, none of
# which divides the degree: the walk decides it over 5,576 sets of them
WIDE_LOOP = ("172633,228596,289303,167889,242828,260839,224817,296861,152773,288176,"
             "170143,236066,274363,197769,153188,286931")

# 18 distinct weights 37..54 and 18 weights 73 at degree 73 (36 variables):
# every one of the 2^18 - 1 sets of the distinct weights passes, so the walk
# is refused past its cell limit
WIDE_WALK = ",".join(map(str, [*range(37, 55), *[73] * 18]))

# integers the CLI computes from small inputs but could not write in decimal
# (more digits than the interpreter's int-to-str limit, 4,300 by default)
ONES_2000 = ",".join(["1"] * 2000)
PRIMES = [p for p in range(2, 12554) if all(p % q for q in range(2, math.isqrt(p) + 1))]
FIRST_1500_PRIMES = ",".join(map(str, PRIMES))

# two systems past the Milnor-Orlik budget: 1,000 weights 1 in a degree of
# 3,001 digits, whose running sums grow to about m log2(d) bits, and the
# weights d/p_i with d the product of the first 20 primes p_i, a
# Brieskorn-Pham system whose lcm table would hold 2^20 entries
ONES_1000_DEGREE = (",".join(["1"] * 1000), str(10**3000 + 1))
PRIMORIAL_20 = math.prod(PRIMES[:20])
PRIMORIAL_SYSTEM = (",".join(str(PRIMORIAL_20 // p) for p in PRIMES[:20]), str(PRIMORIAL_20))


@pytest.mark.parametrize(
    "weights, degree",
    [(WIDE_LOOP, "746495"), (",".join(["3,2"] * 16), "8")],
    ids=["wide loop", "(3,2)x16"],
)
def test_invariants_decides_wide_quasi_smooth_systems(weights, degree, capsys):
    code = main(["invariants", "--weights", weights, "--degree", degree, "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["quasi_smooth"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "--weights", "1,2,4", "--degree", "100000001"], "tracing monomial degrees"),
        (["scan", "fermat-cy", "--k-bound", "3000000", "--m", "3..3"], "a catalog of more than"),
        (["invariants", "--weights", WIDE_WALK, "--degree", "73"], "the quasi-smoothness test of "),
        (["scan", "fermat-cy", "--k-bound", "2", "--m", "3..1000000000"], "a scan of bases in "),
        (["scan", "hyperbolic", "--m", "3..300"], "a scan of bases in "),
        (["invariants", "--weights", ONES_2000, "--degree", "2000"], "betti has more than "),
        (["cover", "--k", "2", "--weights", ONES_2000, "--degree", "2001"], "torsion has more "),
        (["invariants", "--weights", "2,3,5", "--degree", str(30**2000)], "betti has more "),
        (["certify", "--exponents", FIRST_1500_PRIMES], "reciprocal_sum has more than "),
        (["moduli", "--weights", "1,1", "--degree", "9" * 4300], "the cell count of a "),
        (["invariants", "--weights", "2,3,4", "--degree", "9" * 4300], "the cell count of a "),
        (["invariants", "--weights", ONES_1000_DEGREE[0], "--degree", ONES_1000_DEGREE[1]],
         "the Milnor-Orlik sum of "),
        (["invariants", "--weights", PRIMORIAL_SYSTEM[0], "--degree", PRIMORIAL_SYSTEM[1]],
         "the Milnor-Orlik sum of "),
    ],
)
def test_bitset_and_record_budgets_exit_4(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"resource budget error: {message}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_ingest_cli_reports_a_row_past_the_counting_budget(tmp_path, capsys):
    # the moduli count of (1,1,1;3000000), whose one coprime k is 7, counts
    # on a base table of degree 3000000, past the table budget
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n1,1,1;3000000\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..7", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("ingest: line 2: counting monomials of degree ")
    assert len(captured.err.splitlines()) == 1
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.base.degree, r.k) for r in records} == {
        ((1, 1, 1), 3, k) for k in (2, 4, 5, 7)
    }


def test_ingest_counts_a_row_on_its_base_table_within_the_budget(tmp_path, capsys):
    # the k = 2 cover of (1,1,500001;500001) has degree 1000002, so its own
    # table would pass the cell limit; the base table has 500002 cells
    src = tmp_path / "bases.txt"
    src.write_text("1,1,500001;500001\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..3", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    meta, records = parse_catalog_json(captured.out)
    assert [(r.base.weights, r.k) for r in records] == [((1, 1, 500001), 2)]
    # t[s] = s + 1 below d and t[d] = (d + 1) + 1: h0_degree = t[d] + 1, and
    # h0_weights_sum = 1 + t[1] + t[1] + (t[d] + t[0]), the j = 1 term of w = d
    assert records[0].moduli == (500003 + 1, 1 + 2 + 2 + 500003 + 1)


def test_ingest_writes_its_row_diagnostics_byte_for_byte_in_its_own_process(tmp_path):
    # unbuffered, as the benchmark runs it: one line per skipped row, in
    # row order, whatever made the row fail
    src = tmp_path / "bases.txt"
    src.write_bytes(b"1,1,1;3\nfoo\n1,1;0\n4,4,6,9;12\n\xff\n2,2,2,3,3,5;13\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
    done = subprocess.run(
        [sys.executable, "-m", "selinks", "ingest", str(src), "--k-range", "2..5"],
        cwd=root, env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    unsmooth = "has no quasi-smooth member; invariants are not defined for this weight class"
    assert done.stderr == (
        "ingest: line 2: expected 'w1,...,wm;d', got 'foo'\n"
        "ingest: line 3: degree must be positive, got 0\n"
        f"ingest: line 4: (4,4,6,9;12) {unsmooth}\n"
        "ingest: line 5: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte)\n"
        f"ingest: line 6: (2,2,2,3,3,5;13) {unsmooth}\n"
    ).encode("ascii")
    assert done.stdout.count(b"\ningested ") == 3  # (1,1,1;3) at k = 2, 4, 5


def test_a_run_the_record_budget_ends_writes_its_diagnostics_then_one_error(
    tmp_path, capsys, monkeypatch
):
    # more diagnostics than one slice come before the row that passes the
    # record budget: each is written as its row fails, in row order, and the
    # run then ends with exit 4 and one line; the rows after it never run
    from selinks import survey

    rows = ["1,1,1;3", *(["foo"] * 1100), "1,1,2;4", "bar"]
    src = tmp_path / "bases.txt"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    # k in 2..5: three records of (1,1,1;3), two of (1,1,2;4)
    monkeypatch.setattr(survey, "CATALOG_RECORD_LIMIT", 4)
    assert 1100 > cli._DIAGNOSTIC_SLICE
    assert main(["ingest", str(src), "--k-range", "2..5", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[:-1] == [
        f"ingest: line {n}: expected 'w1,...,wm;d', got 'foo'" for n in range(2, 1102)
    ]
    assert lines[-1] == (
        "resource budget error: a catalog of more than 4 records is refused "
        "(the limit is passed at (1,1,2;4), k = 5)"
    )


def test_a_file_of_lines_not_utf8_holds_no_diagnostics_in_its_own_process(
    tmp_path, monkeypatch
):
    # at the byte budget, 250,000 one-byte lines that are not UTF-8 each get
    # a diagnostic: written as the rows fail, they keep the child's peak RSS,
    # read as the benchmark reads it, far under the 58 MiB it reached when
    # the run held them all until it ended
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    try:
        launch, peak_rss_mib, env = run.launch, run.peak_rss_mib, run.child_env()
    finally:
        for name in ("run", "workloads", "oracles"):
            sys.modules.pop(name, None)
    src, peak, err = tmp_path / "bases.txt", tmp_path / "peak", tmp_path / "err"
    rows = cli.INGEST_BYTE_LIMIT // 2
    src.write_bytes(b"\xff\n" * rows)
    with open(err, "wb") as stderr:
        done = subprocess.run(
            launch(["ingest", str(src)], peak), env=env, stdout=subprocess.PIPE,
            stderr=stderr, timeout=120,
        )
    assert done.returncode == 0
    assert done.stdout == render_catalog([], "table", ScanConfig()).encode("ascii")
    message = (
        ": not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte)\n"
    )
    with open(err, encoding="ascii") as lines:
        for n, line in enumerate(lines, start=1):
            assert line == f"ingest: line {n}{message}"
    assert n == rows == 250_000
    assert 0 < peak_rss_mib(peak) < 40


def test_ingest_gives_a_row_too_long_to_write_a_diagnostic_in_its_own_process(tmp_path):
    # the middle row's Betti number has about 6,000 digits, past the
    # int-to-str limit: the row gets a diagnostic before any of its records
    # is built, and the rows around it keep theirs
    src = tmp_path / "bases.txt"
    src.write_text("1,2,3;6\n" + ",".join(["1"] * 20000) + ";3\n1,1,1;3\n", encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "selinks", "ingest", str(src), "--format", "json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("ingest: line 2: b_19998 has more than ")
    assert len(done.stderr.splitlines()) == 1
    meta, records = parse_catalog_json(done.stdout)
    assert {(r.base.weights, r.base.degree) for r in records} == {((1, 2, 3), 6), ((1, 1, 1), 3)}


def test_ingest_gives_rows_past_the_milnor_orlik_budget_a_diagnostic(tmp_path, capsys):
    # k = 73 and 79 are coprime to both degrees, so both Betti sums are taken
    rows = ["1,1,1;3", ";".join(PRIMORIAL_SYSTEM), "1,2,3;6", ";".join(ONES_1000_DEGREE), "1,1,2;4"]
    src = tmp_path / "bases.txt"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "73..79", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    diagnostics = captured.err.splitlines()
    assert [line.split(": ")[1] for line in diagnostics] == ["line 2", "line 4"]
    assert all(": the Milnor-Orlik sum of (" in line for line in diagnostics)
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.base.degree) for r in records} == {
        ((1, 1, 1), 3), ((1, 2, 3), 6), ((1, 1, 2), 4)
    }


def test_python_dash_m_selinks_runs_the_command_line():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "selinks", "--version"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("selinks ")


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds once it has run `code`, listed on
    stderr, apart from what the code writes to stdout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI child pays for its imports: dataclasses, and the inspect it
    # pulls in, cost each one about 20 ms
    heavy = {"dataclasses", "inspect"}
    assert heavy & _modules_after("import selinks.cli") <= _modules_after("pass")


def _command_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter holds once `selinks ARGS` has run."""
    return _modules_after(f"from selinks.cli import main\nassert main({list(args)!r}) == 0")


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    # --version and scan euclidean run no certificate, topology or moduli
    # code and write no CSV, so neither loads those layers, csv or fractions
    layers = {"selinks.ke_cert", "selinks.moduli", "selinks.topology"}
    unused = layers | {"csv", "fractions"}
    at_start = _modules_after("pass")
    version = _command_modules("--version")
    assert unused & version <= at_start
    # --version writes no JSON either
    assert "json" not in version or "json" in at_start
    euclidean = _command_modules("scan", "euclidean", "--weight-bound", "10", "--format", "json")
    assert unused & euclidean <= at_start
    # its CSV loads csv, and still neither the layers nor the catalog writer
    euclidean_csv = _command_modules("scan", "euclidean", "--weight-bound", "10", "--format", "csv")
    assert layers & euclidean_csv <= at_start
    assert "csv" in euclidean_csv
    # a family scan certifies its covers, so the check above is not vacuous
    fermat = _command_modules("scan", "fermat-cy", "--k-bound", "10", "--m", "3..3")
    assert layers <= fermat
    # no command reads a catalog back, so none loads the reader, not even
    # one that writes a JSON catalog; reading one does
    rows = tmp_path / "bases.txt"
    rows.write_text("1,1,1;3\n1,2,3;6\n", encoding="utf-8")
    ingest = _command_modules("ingest", str(rows), "--k-range", "2..5", "--format", "json")
    for loaded in (version, euclidean, fermat, ingest):
        assert "selinks.reader" not in loaded
    # only a command that writes a record catalog loads the writer
    moduli = _command_modules("moduli", "--weights", "1,1,1", "--degree", "3", "--format", "json")
    single = [
        _command_modules("invariants", "--weights", "1,2,3", "--degree", "6"),
        _command_modules("cover", "--k", "5", "--weights", "1,2,3", "--degree", "6", "--format", "json"),
        _command_modules("certify", "--exponents", "2,3,7"),
        moduli,
    ]
    for loaded in (version, euclidean, euclidean_csv, *single):
        assert "selinks.writer" not in loaded
    # the parameter count runs no certificate
    assert "selinks.ke_cert" not in moduli
    assert "selinks.writer" in fermat and "selinks.writer" in ingest
    # the record builders load only where records are built, and the
    # single-system handlers only where those four commands run
    for loaded in (version, euclidean, euclidean_csv):
        assert {"selinks.records", "selinks.single"}.isdisjoint(loaded)
    for loaded in (fermat, ingest):
        assert "selinks.records" in loaded and "selinks.single" not in loaded
    for loaded in single:
        assert "selinks.single" in loaded and "selinks.records" not in loaded
    # the catalog is written here, so only reading it can load the writer
    empty = render_catalog([], "json", ScanConfig())
    read = _modules_after(f"from selinks import cli\ncli.parse_catalog_json({empty!r})")
    assert {"selinks.reader", "selinks.writer"} <= read


def test_a_command_loads_nothing_outside_the_standard_library(tmp_path):
    # the package's only dependency is the interpreter.  What `pass` loads
    # differs by version and by the site hooks installed, so it is left out;
    # every row below reads, so ingest writes nothing to stderr
    rows = tmp_path / "bases.txt"
    rows.write_text("1,1,1;3\n1,2,3;6\n", encoding="utf-8")
    at_start = _modules_after("pass")
    for args in (
        ["--version"],
        ["scan", "euclidean", "--weight-bound", "10", "--format", "json"],
        ["scan", "mixed-canonical", "--m", "3..4", "--format", "json"],
        ["ingest", str(rows), "--k-range", "2..5", "--format", "csv"],
    ):
        loaded = {name.partition(".")[0] for name in _command_modules(*args) - at_start}
        assert loaded - {"selinks", *sys.stdlib_module_names} == set(), args


# the most syntax-tree nodes a module that every command compiles may have
EVERY_COMMAND_NODE_BUDGET = 1_900


def test_each_module_every_command_compiles_stays_within_the_node_budget():
    # a child compiles each module it loads from source, and its peak RSS
    # follows the largest of them, at about 0.3 KiB per syntax-tree node,
    # since compiling holds a module's whole tree at once.  Every command
    # loads what --version loads, so none of those modules may grow past the
    # budget; code only some commands run belongs in a module they load
    loaded = sorted(name for name in _command_modules("--version") if name.startswith("selinks"))
    assert {"selinks", "selinks.cli", "selinks.survey"} <= set(loaded)
    for name in loaded:
        source = Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
        nodes = sum(1 for _ in ast.walk(ast.parse(source)))
        assert nodes <= EVERY_COMMAND_NODE_BUDGET, (name, nodes)


def _catalog_text() -> str:
    cfg = ScanConfig(k_bound=5, m_range=(3, 3))
    return render_catalog(scan_all(cfg), "json", cfg)


def test_parse_catalog_json_rejects_truncated_text():
    text = _catalog_text()
    with pytest.raises(UsageError, match="malformed catalog"):
        parse_catalog_json(text[: len(text) // 2])


@pytest.mark.parametrize("text", ["[" * 100000, '{"meta":' * 50000], ids=["array", "object"])
def test_parse_catalog_json_refuses_deep_nesting(text):
    # json.loads gives up with RecursionError, which ends in a UsageError too
    with pytest.raises(UsageError, match="malformed catalog: RecursionError"):
        parse_catalog_json(text)


def test_parse_catalog_json_refuses_a_record_nested_as_deep_as_json_reads():
    # the deepest weight lists json.loads still reads leave the reader less
    # room than the decoder had; a record that runs out of it is refused
    # like any other, never with a traceback
    payload = json.loads(_catalog_text())
    payload["records"][1]["base"]["weights"] = "NESTED"
    template = json.dumps(payload)

    def nested(depth: int) -> str:
        return template.replace('"NESTED"', "[" * depth + "]" * depth)

    lo, hi = 1, 1 << 16  # the deepest nesting json.loads reads, by bisection
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads(nested(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    for depth in range(lo - 3, lo + 2):
        with pytest.raises(UsageError, match="^malformed catalog( record 1)?: "):
            parse_catalog_json(nested(depth))


def test_parse_catalog_json_names_the_bad_record():
    payload = json.loads(_catalog_text())
    del payload["records"][1]["certificate"]
    with pytest.raises(UsageError, match=r"record 1: KeyError\('certificate'\)"):
        parse_catalog_json(json.dumps(payload))
    # each record reads back, but the writer writes the records sorted: the
    # catalog's 11 records run from euclidean5 at k = 2, 4, 5 on (1,1,1;3)
    # to one mixed_canonical record
    payload = json.loads(_catalog_text())
    payload["records"].reverse()
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert str(excinfo.value) == (
        'catalog record 0 differs from the writer\'s: family is "mixed_canonical", '
        'expected "euclidean5"'
    )
    # the first record again at the end, with the count raised to match
    payload["records"].reverse()
    payload["records"].append(payload["records"][0])
    payload["meta"]["count"] += 1
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert str(excinfo.value) == "catalog record 1 differs from the writer's: k is 4, expected 2"


def test_parse_catalog_json_checks_the_schema():
    payload = json.loads(_catalog_text())
    payload["meta"]["schema"] = "selinks.catalog/2"
    with pytest.raises(UsageError, match="selinks.catalog/2"):
        parse_catalog_json(json.dumps(payload))
    payload["meta"]["schema"] = writer.CATALOG_SCHEMA
    payload["records"] = {"0": payload["records"][0]}
    with pytest.raises(UsageError, match="malformed catalog: records is not a list"):
        parse_catalog_json(json.dumps(payload))


# The ids of the reader's refusal cases below keep the names the cases had
# when each key had its own rule, so that runs before and after compare.


@pytest.mark.parametrize(
    "group, key, value, message",
    [
        pytest.param(
            None, "m", "three", 'm is "three", expected 3',
            id="None-m-three-m is 'three', expected int",
        ),
        pytest.param(
            "certificate", "fano", "yes", 'fano is "yes", expected true',
            id="certificate-fano-yes-fano is 'yes', expected bool",
        ),
        pytest.param(
            None, "k", True, "k is true, expected 5", id="None-k-True-k is True, expected int"
        ),
        pytest.param(
            "certificate", "bp_sufficient", 1, "bp_sufficient is 1, expected false",
            id="certificate-bp_sufficient-1-bp_sufficient is 1, expected bool",
        ),
        pytest.param(
            None, "genus", 1.0, "genus is 1.0, expected 1",
            id="None-genus-1.0-genus is 1.0, expected int or null",
        ),
        # WeightSystem refuses what is not an int, as a usage error
        pytest.param(
            "base", "weights", "111", "UsageError(\"weights and degree must be integers",
            id="base-weights-111-'1' is not an integer",
        ),
        pytest.param(
            "base", "weights", "111", "got ('1', '1', '1') and 3",
            id="base-weights-111-weights is '111', '1' is not an integer",
        ),
        ("torsion", "base", 5.0, "5.0 is not an integer"),
        ("torsion", "exponent", True, "True is not an integer"),
    ],
)
def test_parse_catalog_json_checks_value_types(group, key, value, message):
    # a stored value is refused by the type it builds, a derived one by the
    # re-render
    payload = json.loads(_catalog_text())
    (payload["records"][2] if group is None else payload["records"][2][group])[key] = value
    with pytest.raises(UsageError, match="^(malformed )?catalog record 2") as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert message in str(excinfo.value)


@pytest.mark.parametrize(
    "path, key, where",
    [
        pytest.param(
            (), "payload_extra", "catalog",
            id="path0-payload_extra-malformed catalog: TypeError(\"the catalog holds",
        ),
        pytest.param(
            ("records", 0), "extra", "catalog record 0",
            id="path1-extra-record 0: TypeError(\"the record holds",
        ),
        pytest.param(
            ("records", 1, "base"), "extra", "catalog record 1",
            id="path2-extra-record 1: TypeError(\"base holds",
        ),
        pytest.param(
            ("records", 1, "moduli"), "extra", "catalog record 1",
            id="path3-extra-record 1: TypeError(\"moduli holds",
        ),
        pytest.param(
            ("records", 1, "certificate"), "note", "catalog record 1",
            id="path4-note-record 1: TypeError(\"certificate holds",
        ),
        pytest.param(
            ("records", 1, "torsion"), "junk", "catalog record 1",
            id="path5-junk-record 1: TypeError(\"torsion is {",
        ),
        pytest.param(
            ("records", 2, "certificate", "left_value"), "num2", "catalog record 2",
            id="path6-num2-record 2: TypeError(\"left_value",
        ),
        pytest.param(
            ("records", 2, "certificate", "right_bound"), "den2", "catalog record 2",
            id="path7-den2-record 2: TypeError(\"right_bound",
        ),
    ],
)
def test_parse_catalog_json_refuses_a_key_the_writer_never_writes(path, key, where):
    payload = json.loads(_catalog_text())
    obj = payload
    for step in path:
        obj = obj[step]
    obj[key] = 1
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    difference = f'found "{key}": 1, expected }}'
    assert str(excinfo.value) == f"{where} differs from the writer's: {difference}"


def _leaves(obj, path=()):
    """(path, value) of each value in `obj` that is neither a list nor a dict."""
    if not isinstance(obj, (dict, list)):
        yield path, obj
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield from _leaves(value, (*path, key))


def test_every_leaf_of_a_record_is_refused_in_another_json_type():
    # stored or derived, a value of a JSON type the writer never writes in
    # its place is refused: by the type it builds, or by the re-render;
    # null is a value of the fields that may hold None
    nullable = {
        tuple(field.json_path.split(".")) for field in writer._FIELDS
        if field.codec is writer._OPTIONAL_INT
    }
    text = _catalog_text()

    def edited(path, sample):
        payload = json.loads(text)
        obj = payload["records"][2]
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = sample
        return json.dumps(payload)

    leaves = list(_leaves(json.loads(text)["records"][2]))
    assert len(leaves) == 28
    for path, value in leaves:
        for sample in (True, 3.0, "3", None):
            if type(sample) is type(value) or (sample is None and path in nullable):
                continue
            with pytest.raises(UsageError, match="catalog"):
                parse_catalog_json(edited(path, sample))
    # a value the record takes but the writer cannot write: rendered one
    # record at a time, the record that holds it is named
    for path, sample in (
        (("moduli", "h0_degree"), 3.0), (("literal_min_k",), "3"), (("family",), 3)
    ):
        with pytest.raises(UsageError, match=r"^malformed catalog record 2: TypeError"):
            parse_catalog_json(edited(path, sample))


@pytest.mark.parametrize(
    "edit, message",
    [
        # a base whose degree k = 5 divides: the torsion hypothesis fails
        pytest.param(
            {"base": {"weights": [1, 1, 1], "degree": 5}},
            "record 2: ValueError('k = 5 is not coprime to the degree of (1,1,1;5)')",
            id="edit0-l_or_d is 3, expected 5",
        ),
        # the record is built with its base reduced and its weights sorted
        pytest.param(
            {"base": {"weights": [2, 2, 2], "degree": 6}},
            "weights holds 2, expected 1",
            id="edit1-not reduced with sorted weights",
        ),
        pytest.param(
            {"base": {"weights": [2, 1, 1], "degree": 3}},
            "weights holds 2, expected 1",
            id="edit2-not reduced with sorted weights",
        ),
        ({"m": 7}, "m is 7, expected 3"),
        ({"link_dimension": 9}, "link_dimension is 9, expected 5"),
        # the record reads k off the torsion base, which must lie in the bounds
        pytest.param(
            {"torsion": {"base": 11, "exponent": 2}},
            "record 2: ValueError('k is 11, not in k_min..k_bound 2..5')",
            id="edit5-torsion base is 11, expected 5",
        ),
        # a torsion order outside the torsion hypothesis
        ({"k": 3, "torsion": {"base": 3, "exponent": 2}}, "k = 3 is not coprime to the degree"),
        # the record reads the genus off b_1 = 2g at m = 3, and null otherwise
        pytest.param(
            {"genus": None},
            "genus is null, expected 1",
            id="edit7-genus is None, expected an integer for m = 3",
        ),
        # a base of m = 4 sorts after the records of m = 3, so the record
        # the writer writes in its place differs first
        pytest.param(
            {"base": {"weights": [1, 1, 1, 1], "degree": 3}, "m": 4, "link_dimension": 7},
            "m is 4, expected 3",
            id="edit8-genus is 1, expected null for m = 4",
        ),
    ],
)
def test_parse_catalog_json_refuses_an_inconsistent_record(edit, message):
    payload = json.loads(_catalog_text())
    record = payload["records"][2]
    assert (record["base"], record["k"], record["l_or_d"]) == (
        {"weights": [1, 1, 1], "degree": 3}, 5, 3
    )
    record.update(edit)
    with pytest.raises(UsageError, match="^(malformed )?catalog record 2") as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert message in str(excinfo.value)


@pytest.mark.parametrize(
    "group, key, value, message",
    [
        (None, "k", 11, "k is 11, expected 5"),
        (None, "m", 4, "m is 4, expected 3"),
        (None, "l_or_d", 4, "l_or_d is 4, expected 3"),
        (None, "link_dimension", 7, "link_dimension is 7, expected 5"),
        (None, "genus", 2, "genus is 2, expected 1"),
        pytest.param(
            "moduli", "complex", 999, "complex is 999, expected 1",
            id="moduli-complex-999-moduli_complex is 999, expected 1",
        ),
        pytest.param(
            "moduli", "real", 5, "real is 5, expected 2",
            id="moduli-real-5-moduli_real is 5, expected 2",
        ),
        pytest.param(
            "certificate", "fano", False, "fano is false, expected true",
            id="certificate-fano-False-fano is False, expected True",
        ),
        pytest.param(
            "certificate", "bp_sufficient", True, "bp_sufficient is true, expected false",
            id="certificate-bp_sufficient-True-bp_sufficient is True, expected False",
        ),
        pytest.param(
            "certificate", "gc_assumed", False, "gc_assumed is false, expected true",
            id="certificate-gc_assumed-False-gc_assumed is False, expected True",
        ),
    ],
)
def test_parse_catalog_json_refuses_an_edited_derived_field(group, key, value, message):
    # the record stores none of these: it reads them off the base, the
    # torsion order, the two h0 counts, the certificate's two sides and its
    # constant, so each must read back
    classes = reader._PART_CLASSES
    derived = [
        field.json_path
        for field in writer._FIELDS
        for attr_group, name in [writer._split(field.attr_path)]
        if name not in (FamilyRecord if attr_group is None else classes[attr_group])._fields
    ]
    assert derived == [
        "m",
        "k",
        "l_or_d",
        "link_dimension",
        "genus",
        "moduli.complex",
        "moduli.real",
        "certificate.fano",
        "certificate.bp_sufficient",
        "certificate.gc_assumed",
    ]
    payload = json.loads(_catalog_text())
    (payload["records"][2] if group is None else payload["records"][2][group])[key] = value
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert str(excinfo.value) == f"catalog record 2 differs from the writer's: {message}"


def _expanded_catalog() -> dict:
    # the torsion orders of these 8 records are k^2, k = 2, 4, ..., 13
    cfg = ScanConfig(k_bound=13, m_range=(3, 3))
    return json.loads(render_catalog(scan_fermat_cy(cfg), "json", cfg, expand_torsion=True))


@pytest.mark.parametrize(
    "where, edit, message",
    [
        pytest.param(
            7,
            {"torsion": {"base": 13, "exponent": 2, "decimal": "170"}},
            'catalog record 7 differs from the writer\'s: decimal is "170", expected "169"',
            id="7-edit0-record 7: ValueError(\"decimal is '170', expected '169'\")",
        ),
        pytest.param(
            3,
            {"torsion": {"base": 7, "exponent": 2}},
            'catalog record 3 differs from the writer\'s: found }, expected "decimal": "49"',
            id="3-edit1-record 3: KeyError('decimal')",
        ),
        pytest.param(
            "meta",
            {"expand_torsion": False},
            'catalog record 0 differs from the writer\'s: found "decimal": "4", expected }',
            id="meta-edit2-record 0: ValueError("
            "'decimal is written, but meta.expand_torsion is false')",
        ),
        # a catalog is rendered with expand_torsion only when it is true
        pytest.param(
            "meta",
            {"expand_torsion": "yes"},
            'catalog meta differs from the writer\'s: expand_torsion is "yes", expected false',
            id="meta-edit3-catalog expand_torsion is 'yes', expected bool",
        ),
        pytest.param(
            "meta",
            {"count": 99},
            "catalog meta differs from the writer's: count is 99, expected 8",
            id="meta-edit4-catalog count is 99, expected 8",
        ),
        pytest.param(
            "meta",
            {"count": None},
            "catalog meta differs from the writer's: count is null, expected 8",
            id="meta-edit5-catalog count is None, expected 8",
        ),
        pytest.param(
            "meta",
            {"count": 8.0},
            "catalog meta differs from the writer's: count is 8.0, expected 8",
            id="meta-edit6-catalog count is 8.0, expected 8",
        ),
    ],
)
def test_parse_catalog_json_reads_back_the_decimal_and_the_count(where, edit, message):
    payload = _expanded_catalog()
    (payload["meta"] if where == "meta" else payload["records"][where]).update(edit)
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert str(excinfo.value) == message


def test_parse_catalog_json_expands_a_decimal_under_the_digit_budget():
    # a power past the int-to-str limit could not have been written
    payload = _expanded_catalog()
    record = payload["records"][0]
    record["torsion"] = {"base": 2, "exponent": 10**5, "decimal": "2"}
    record["genus"] = 5 * 10**4
    with pytest.raises(ResourceBudgetError, match="^2\\^100000 has more than "):
        parse_catalog_json(json.dumps(payload))


def test_the_meta_of_a_scan_catalog_by_hand(capsys):
    # spelled out here, not taken from writer._catalog_meta, which both the
    # writer and the reader use
    meta = {
        "schema": "selinks.catalog/1",
        "tool": {"name": "selinks", "version": "0.1.0"},
        "assumptions": [
            "genericity condition on perturbations assumed, not verified",
            "sufficiency verdicts follow the literal displayed inequality",
        ],
        "expand_torsion": False,
        "count": 8,
        "bounds": {"weight_bound": 60, "k_bound": 13, "m_range": [3, 3], "k_min": 2},
    }
    assert main(["scan", "fermat-cy", "--k-bound", "13", "--m", "3..3", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["meta"] == meta
    assert parse_catalog_json(text)[0] == meta


@pytest.mark.parametrize(
    "group, key, value, message",
    [
        (
            "bounds",
            "k_bound",
            -5,
            "catalog bounds {'weight_bound': 60, 'k_bound': -5, 'm_range': [3, 3], 'k_min': 2} are "
            "refused: UsageError('bounds must be positive, got weight_bound 60 and k_bound -5')",
        ),
        (
            "bounds",
            "m_range",
            [9, 3],
            "'m_range': [9, 3], 'k_min': 2} are refused: "
            "UsageError('m range must satisfy 3 <= lo <= hi, got [9, 3]')",
        ),
        # the records reach k = 13
        ("bounds", "k_bound", 5, "record 3: ValueError('k is 7, not in k_min..k_bound 2..5')"),
        # 8.0 is not 8, and true is not 1
        (
            "bounds",
            "k_bound",
            13.0,
            "'k_bound': 13.0, 'm_range': [3, 3], 'k_min': 2} are refused: "
            "TypeError('13.0 is not an integer')",
        ),
        ("bounds", "k_bound", True, "are refused: TypeError('True is not an integer')"),
        ("bounds", "thread_budget", 1, "unexpected keyword argument 'thread_budget'"),
        pytest.param(
            None, "tool", {"name": "x"},
            "catalog meta differs from the writer's: name is \"x\", expected \"selinks\"",
            id="None-tool-value6-catalog tool is {'name': 'x'}, expected {'name': 'sel",
        ),
        pytest.param(
            "tool", "version", "0.0.9",
            "catalog meta differs from the writer's: version is \"0.0.9\", expected \"0.1.0\"",
            id="tool-version-0.0.9-catalog tool is {'name': 'selinks', 'version': '0.0.9'}",
        ),
        pytest.param(
            None, "assumptions", [],
            "catalog meta differs from the writer's: assumptions is [], expected [...]",
            id="None-assumptions-value8-catalog assumptions is [], "
            "expected ['genericity condition",
        ),
        pytest.param(
            None, "schema", None,
            "catalog meta differs from the writer's: schema is null, "
            "expected \"selinks.catalog/1\"",
            id="None-schema-None-catalog schema is None, expected 'selinks.catalog/1'",
        ),
        pytest.param(
            None, "extra", None,
            "catalog meta differs from the writer's: found \"extra\": null, expected }",
            id="None-extra-None-catalog meta keys are ['assumptions', 'bounds', 'count', "
            "'expand_torsion', 'extra', 'schema', 'tool'], expected ['assumptions', 'bounds', "
            "'count', ",
        ),
        # an m_range that is not a pair
        (
            "bounds",
            "m_range",
            [3, 4, 5],
            "are refused: UsageError('m range must be a pair (lo, hi), got [3, 4, 5]')",
        ),
        (
            "bounds",
            "m_range",
            3,
            "are refused: UsageError('m range must be a pair (lo, hi), got 3')",
        ),
    ],
)
def test_parse_catalog_json_reads_back_every_meta_key(group, key, value, message):
    payload = _expanded_catalog()
    (payload["meta"] if group is None else payload["meta"][group])[key] = value
    with pytest.raises(UsageError) as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert message in str(excinfo.value)


def test_parse_catalog_json_refuses_a_catalog_without_bounds():
    payload = _expanded_catalog()
    del payload["meta"]["bounds"]
    with pytest.raises(UsageError, match=r"malformed catalog: KeyError\('bounds'\)"):
        parse_catalog_json(json.dumps(payload))


def test_scan_and_ingest_defaults_are_the_scan_config_defaults(tmp_path, capsys):
    cfg = ScanConfig()
    assert (cfg.weight_bound, cfg.k_bound, cfg.m_range, cfg.k_min) == (60, 60, (3, 8), 2)
    defaults = {"weight_bound": 60, "k_bound": 60, "m_range": [3, 8], "k_min": 2}
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n", encoding="utf-8")
    for argv in (["scan", "mixed-canonical"], ["ingest", str(src)]):
        assert main([*argv, "--format", "json"]) == 0
        meta, _ = parse_catalog_json(capsys.readouterr().out)
        assert meta["bounds"] == defaults


def test_ingest_cli_reports_a_row_past_the_walk_budget(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_text(f"1,1,1;3\n{WIDE_WALK};73\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("ingest: line 2: the quasi-smoothness test of ")
    assert len(captured.err.splitlines()) == 1
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.k) for r in records} == {((1, 1, 1), k) for k in (2, 4, 5)}


def test_ingest_cli_reports_a_line_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_bytes(b"1,1,1;3\n\xff\n1,1,2;4\n")
    code = main(["ingest", str(src), "--k-range", "2..5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("ingest: line 2: not UTF-8 text (")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    meta, records = parse_catalog_json(captured.out)
    assert {(r.base.weights, r.k) for r in records} == {
        ((1, 1, 1), 2), ((1, 1, 1), 4), ((1, 1, 1), 5), ((1, 1, 2), 3), ((1, 1, 2), 5)
    }


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbf1,1,1;3\n1,1,2;4\n",
        b"1,1,1;3\r\n1,1,2;4\r\n",
        b"1,1,1;3\r1,1,2;4",
    ],
)
def test_ingest_cli_reads_a_byte_order_mark_and_every_line_ending(data, tmp_path, capsys):
    src = tmp_path / "bases.txt"
    src.write_bytes(data)
    assert main(["ingest", str(src), "--k-range", "2..5", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    plain = tmp_path / "plain.txt"
    plain.write_text("1,1,1;3\n1,1,2;4\n", encoding="utf-8")
    assert main(["ingest", str(plain), "--k-range", "2..5", "--format", "json"]) == 0
    assert captured.out == capsys.readouterr().out


def test_ingest_refuses_a_file_past_the_byte_budget_before_any_row_runs(
    tmp_path, capsys, monkeypatch
):
    # the file is read to at most the budget and one byte more, so a larger
    # file costs no more; the budget is made small so that this reads a few
    # bytes, and the benchmark's rows stay far inside the real one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import ingest_rows

    try:
        rows = ("\n".join(ingest_rows(0).lines) + "\n").encode("utf-8")
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    assert 10 * len(rows) < cli.INGEST_BYTE_LIMIT
    src = tmp_path / "bases.txt"
    src.write_bytes(b"1,1,1;3\n\xff\n1,1,2;4\n")
    size, runs, real = len(src.read_bytes()), [], cli.ingest_weight_list
    monkeypatch.setattr(cli, "ingest_weight_list", lambda *a, **k: runs.append(a) or real(*a, **k))
    monkeypatch.setattr(cli, "INGEST_BYTE_LIMIT", size)
    assert main(["ingest", str(src), "--k-range", "2..5", "--format", "json"]) == 0
    assert capsys.readouterr().err.startswith("ingest: line 2: not UTF-8 text (")
    limit = size - 1
    monkeypatch.setattr(cli, "INGEST_BYTE_LIMIT", limit)
    assert main(["ingest", str(src), "--k-range", "2..5", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource budget error: {src}: more than the limit of {limit} bytes\n"
    assert len(runs) == 1  # the refused file ran no row


def test_scan_euclidean_past_the_prefix_budget_exits_4(capsys):
    code = main(["scan", "euclidean", "--weight-bound", "1000000"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("resource budget error: enumerating Euclidean systems ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["scan", "--help"]])
def test_help_and_version_return_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


class Unwritable:
    """A stream whose every write fails, as one on a full disk does."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [["--version"], ["--help"]])
def test_help_and_version_return_3_when_stdout_cannot_be_written(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", Unwritable())
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    # with no stream at all, as under pythonw, they stay silent as argparse does
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", None)
    assert main(argv) == 0


def test_an_unwritable_stderr_leaves_each_failure_its_code(tmp_path, monkeypatch, capsys):
    (tmp_path / "bases.txt").write_text("1,1,1;3\nx\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", Unwritable())
    assert main(["bogus"]) == 1
    assert main(["invariants", "--weights", "1,2,2", "--degree", "5"]) == 2
    # the bad row's diagnostic cannot be written, an i/o error before any catalog
    assert main(["ingest", str(tmp_path / "bases.txt")]) == 3
    # the record budget ends the run at the first row, so nothing is written
    # to stderr before its own line
    assert main(["ingest", str(tmp_path / "bases.txt"), "--k-range", "2..3000000"]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args, full, code, other",
    [
        (["--version"], "stdout", 3, "i/o error: [Errno 28] No space left on device\n"),
        (["invariants", "--weights", "1,2,3", "--degree", "6"], "stdout", 3,
         "i/o error: [Errno 28] No space left on device\n"),
        (["invariants", "--weights", "1,2,2", "--degree", "5"], "stderr", 2, ""),
        # the record budget ends the run before any row diagnostic is written
        (["ingest", "BASES", "--k-range", "2..3000000"], "stderr", 4, ""),
    ],
)
def test_a_buffered_stream_that_cannot_be_written_keeps_the_exit_code(
    args, full, code, other, tmp_path
):
    # without PYTHONUNBUFFERED a standard stream on a file is buffered, so a
    # short write fails only when flushed; the interpreter's flush at exit
    # would end the process with status 120 and "Exception ignored"
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    (tmp_path / "bases.txt").write_text("1,1,1;3\nfoo\n", encoding="utf-8")
    args = [str(tmp_path / "bases.txt") if arg == "BASES" else arg for arg in args]
    with open("/dev/full", "w") as stream:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, full: stream}
        done = subprocess.run([sys.executable, "-m", "selinks", *args], cwd=root, env=env,
                              text=True, timeout=60, **streams)
    assert done.returncode == code
    assert (done.stderr if full == "stdout" else done.stdout) == other
