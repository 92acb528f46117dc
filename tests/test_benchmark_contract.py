"""The benchmark's traced runs (`perfbench/trace.py --trace 1`) wrap named
selinks functions at every binding site and stop when a name is missing or
is not a plain function of its module.  These checks keep a refactor from
breaking that without notice."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "perfbench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_plain_functions_of_their_modules():
    trace = _trace_module()
    names = set(trace.TRACED) | {f"survey.{name}" for name in trace.GENERATORS}
    assert {name.split(".")[0] for name in names} <= set(trace.MODULES)
    for qualified in sorted(names):
        short, attr = qualified.split(".")
        module = importlib.import_module(f"selinks.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), qualified
        assert fn.__module__ == module.__name__, qualified


def test_scan_calls_each_generator_through_its_name_in_cli(monkeypatch, capsys):
    # a traced run rebinds the generators' names in each module, so a
    # generator that `scan` reached through a reference taken at import
    # would record no calls
    trace = _trace_module()
    cli = importlib.import_module("selinks.cli")
    called = []
    for name in trace.GENERATORS & set(vars(cli)):
        monkeypatch.setattr(cli, name, lambda cfg, name=name: called.append(name) or [])
    for family in cli._SCANS:
        assert cli.main(["scan", family, "--format", "json"]) == 0
    capsys.readouterr()
    assert sorted(called) == sorted(trace.GENERATORS - {"scan_all", "ingest_weight_list"})


def test_parse_catalog_json_renders_through_the_cli_name_once(monkeypatch):
    # trace.py counts the bytes each cli.render_catalog call returns, the
    # reader's re-render included: a reader that bound the writer under
    # another name, or rendered twice, would move the traced counts
    from selinks import ScanConfig, scan_fermat_cy

    cli = importlib.import_module("selinks.cli")
    importlib.import_module("selinks.reader")  # first, so a name it bound would miss the patch
    cfg = ScanConfig(k_bound=13, m_range=(3, 4))
    text = cli.render_catalog(scan_fermat_cy(cfg), "json", cfg)
    render, calls = cli.render_catalog, []
    monkeypatch.setattr(cli, "render_catalog", lambda *args: calls.append(args) or render(*args))
    cli.parse_catalog_json(text)
    assert len(calls) == 1


def test_a_traced_run_records_each_busy_layer_and_one_certificate_per_record(
    monkeypatch, tmp_path
):
    # trace.py on the families scans (small bounds) and on the seed-0 ingest
    # rows, each with its catalogs read back, and on the euclidean scan,
    # which writes rows and no record catalog: every layer the workload
    # lists as busy records calls, certify_cover is called once per record
    # and the generator counts each euclidean row
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        from workloads import FAMILY_SCANS, Euclidean, Families, Ingest

        ingest, euclidean_runs = Ingest(tmp_path, 0), Euclidean(tmp_path, 0).invocations()
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    scans = [
        (["scan", family, "--k-bound", "30", "--m", "3..5"], tmp_path / f"{family}.json")
        for family in FAMILY_SCANS
    ]
    runs = {
        "families": (Families, scans),
        "ingest": (Ingest, [(list(inv.args[:2]), inv.out) for inv in ingest.invocations()]),
        # scan euclidean --weight-bound 150
        "euclidean": (Euclidean, [(list(inv.args[:4]), inv.out) for inv in euclidean_runs]),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, (workload, invocations) in runs.items():
        outs = [str(out) for _, out in invocations]
        spec = {
            "invocations": [
                [[*args, "--format", "json", "--out", str(out)], str(tmp_path / f"{name}.err")]
                for args, out in invocations
            ],
            "parse": outs if workload.record_catalogs else [],
        }
        spec_path, stats_path = tmp_path / "spec.json", tmp_path / "stats.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(TRACE), str(spec_path), str(stats_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        functions = stats["functions"]
        idle = [layer for layer in workload.busy if functions.get(layer, {}).get("calls", 0) == 0]
        assert idle == [], name
        records = sum(json.loads(Path(out).read_text())["meta"]["count"] for out in outs)
        if workload.record_catalogs:
            assert functions["ke_cert.certify_cover"]["calls"] == records > 0, name
        else:
            assert functions["survey.generator"]["counts"]["records"] == records == 3, name
            assert "cli.parse_catalog_json" not in functions, name
