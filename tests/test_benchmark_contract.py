"""The benchmark's traced runs (`perfbench/trace.py --trace 1`) wrap named
selinks functions at every binding site and stop when a name is missing or
is not a plain function of its module.  These checks keep a refactor from
breaking that without notice."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


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
