import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from selinks import (
    FactoredPower,
    FamilyRecord,
    ScanConfig,
    UsageError,
    WeightSystem,
    cli,
    scan_all,
    scan_fermat_cy,
)
from selinks.cli import (
    _TABLE,
    CSV_HEADER,
    main,
    parse_catalog_json,
    render_catalog,
)


def test_parse_invocation_invariants():
    ns = cli._build_parser().parse_args(["invariants", "--weights", "1,2,3", "--degree", "6"])
    assert ns.command == "invariants"
    assert ns.handler is cli._run_invariants
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


def test_moduli_past_the_counting_budget_exits_4(capsys):
    code = main(["moduli", "--weights", "1,1,1", "--degree", "1000000000"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("resource budget error: counting monomials of degree ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_ingest_cli_reports_a_row_past_the_counting_work_budget(tmp_path, capsys):
    # the moduli count of the k = 2 cover of (1^20;499999) counts in degree
    # 999998 over 21 weights: within the table budget, past the update budget
    src = tmp_path / "bases.txt"
    src.write_text("1,1,1;3\n" + ",".join(["1"] * 20) + ";499999\n", encoding="utf-8")
    code = main(["ingest", str(src), "--k-range", "2..2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith(
        "ingest: line 2: counting monomials of degree 999998 in 21 weights makes "
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
    # the moduli count of the k = 7 cover of (1,1,1;3000000) counts in
    # degree 21000000, past the table budget
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


def test_python_dash_m_selinks_runs_the_command_line():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "selinks", "--version"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("selinks ")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI child pays for its imports: dataclasses, and the inspect it
    # pulls in, cost each one about 20 ms
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = "import sys; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"

    def loaded(code: str) -> set[str]:
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    assert loaded(f"import selinks.cli; {probe}") <= loaded(probe)


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
    payload["meta"]["schema"] = cli.CATALOG_SCHEMA
    payload["records"] = {"0": payload["records"][0]}
    with pytest.raises(UsageError, match="malformed catalog: records is not a list"):
        parse_catalog_json(json.dumps(payload))


@pytest.mark.parametrize(
    "group, key, value, message",
    [
        (None, "m", "three", "m is 'three', expected int"),
        ("certificate", "fano", "yes", "fano is 'yes', expected bool"),
        (None, "k", True, "k is True, expected int"),
        ("certificate", "bp_sufficient", 1, "bp_sufficient is 1, expected bool"),
        (None, "genus", 1.0, "genus is 1.0, expected int or null"),
        ("base", "weights", "111", "'1' is not an integer"),
        ("base", "weights", "111", "weights is '111', '1' is not an integer"),
        ("torsion", "base", 5.0, "5.0 is not an integer"),
        ("torsion", "exponent", True, "True is not an integer"),
    ],
)
def test_parse_catalog_json_checks_value_types(group, key, value, message):
    payload = json.loads(_catalog_text())
    (payload["records"][2] if group is None else payload["records"][2][group])[key] = value
    with pytest.raises(UsageError, match="record 2: TypeError") as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert message in str(excinfo.value)


def test_each_codec_reads_exactly_the_type_of_its_attribute():
    # the codec of a scalar field accepts a JSON value exactly when its type
    # is in the type hint of the attribute the field fills
    hints = {None: get_type_hints(FamilyRecord)}
    assert {group: hints[None][group] for group in cli._PARTS} == cli._PARTS
    hints.update((group, get_type_hints(part)) for group, part in cli._PARTS.items())
    structured = {
        cli._WEIGHTS: tuple[int, ...], cli._TORSION: FactoredPower, cli._FRACTION: Fraction
    }
    samples = {int: 3, type(None): None, bool: True, float: 3.0, str: "3"}
    for field in cli._FIELDS:
        group, name = cli._split(field.attr_path)
        hint = hints[group][name]
        if field.codec in structured:
            assert structured[field.codec] == hint, field
            continue
        types = get_args(hint) or (hint,)
        for kind, sample in samples.items():
            if kind in types:
                assert field.codec.from_json(sample) is sample, (field, sample)
            else:
                with pytest.raises(TypeError):
                    field.codec.from_json(sample)
    for refused in (True, 3.0, "3"):
        with pytest.raises(TypeError, match="expected int or null"):
            cli._OPTIONAL_INT.from_json(refused)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"base": {"weights": [1, 1, 1], "degree": 5}}, "l_or_d is 3, expected 5"),
        ({"base": {"weights": [2, 2, 2], "degree": 6}}, "not reduced with sorted weights"),
        ({"base": {"weights": [2, 1, 1], "degree": 3}}, "not reduced with sorted weights"),
        ({"m": 7}, "m is 7, expected 3"),
        ({"link_dimension": 9}, "link_dimension is 9, expected 5"),
        ({"torsion": {"base": 11, "exponent": 2}}, "torsion base is 11, expected 5"),
        # a torsion order outside the torsion hypothesis
        ({"k": 3, "torsion": {"base": 3, "exponent": 2}}, "k = 3 is not coprime to the degree"),
        ({"genus": None}, "genus is None, expected an integer for m = 3"),
        (
            {"base": {"weights": [1, 1, 1, 1], "degree": 3}, "m": 4, "link_dimension": 7},
            "genus is 1, expected null for m = 4",
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
    with pytest.raises(UsageError, match="record 2: ValueError") as excinfo:
        parse_catalog_json(json.dumps(payload))
    assert message in str(excinfo.value)


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
