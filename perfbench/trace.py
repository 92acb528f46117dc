"""Traced in-process run of selinks CLI invocations.

    python3 perfbench/trace.py SPEC.json STATS.json

SPEC names the argument lists to pass to `selinks.cli.main` (imported
from PYTHONPATH) one after another (each with a file that receives its
stderr), and catalogs to read back with `parse_catalog_json` afterwards.
STATS receives, per traced function, its calls, self and total seconds,
and exact counts derived from arguments and results.

The functions the benchmark reports (TRACED, and the catalog generators,
which are reported together as survey.generator) are wrapped, and each
wrapper is installed at every binding site: modules import kernels with
`from .x import y`, so replacing only the defining module's attribute would
miss most calls.  A traced name that no longer exists stops the run.  Other
functions get no span, so their time counts as self time of the nearest
reported function that encloses them (cli.record_to_json in
cli.render_catalog, topology.reduced_ratios in topology.milnor_orlik_betti)
and never falls outside every metric.

Self time is measured per thread, as CPU time of the calling thread
(time.thread_time): a span's CPU time minus that of its children on the
same thread.  Wall time would not do, because the scan generators run
record builds on pool threads that take turns on the interpreter lock, so
a span's wall duration also covers the other thread's work.  Span stacks
are thread-local; a span opened on a pool thread with an empty stack is a
child of the innermost open span of the thread that started the run (a
scan generator), and the pool thread's CPU time between such spans (the
enumeration and pool code around them) counts as that parent's self time.
The wrappers' own cost outside the timed window lands in the caller's self
time; trace.overhead_ratio bounds it.  Totals (`total_s`, used for
cli.main and cli.parse_catalog_json) are wall time.

The wrappers take no lock.  Each thread keeps its own statistics, merged
when the run ends, so concurrent calls can neither lose an update nor
queue behind each other.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter, thread_time

MODULES = ("cli", "survey", "links", "topology", "moduli", "arith", "ke_cert")
TRACED = frozenset(
    {
        "cli.main",
        "cli.render_catalog",
        "cli.render_euclidean_rows",
        "cli.parse_catalog_json",
        "links.quasi_smooth_generic",
        "links.branched_cover",
        "topology.milnor_orlik_betti",
        "topology.torsion_order",
        "topology.genus",
        "moduli.moduli_count",
        "arith.count_monomials",
        "ke_cert.certify_cover",
        "ke_cert.bp_sufficient_ke",
    }
)
# the catalog generators are one layer: enumeration, the worker pool, sorting
GENERATORS = frozenset(
    {
        "scan_euclidean_classification",
        "generate_theorem2_family",
        "scan_fermat_cy",
        "scan_hyperbolic",
        "generate_mixed_canonical",
        "scan_all",
        "ingest_weight_list",
    }
)


class Span:
    __slots__ = ("name", "parent", "children_cpu", "foreign")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.children_cpu = 0.0  # CPU time of children on the span's own thread
        # one [cpu between children, cpu at the last child's end] per pool thread
        self.foreign: list[list[float]] = []


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts", "distinct")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: dict[str, int] = {}
        self.distinct: set = set()

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        for key, n in other.counts.items():
            self.add(key, n)
        self.distinct |= other.distinct

    def as_json(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": dict(sorted(self.counts.items())),
            "distinct": len(self.distinct),
        }


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# observers run after a successful call, on the calling thread's statistics,
# and derive exact counts from the call's arguments and result


def _observe_betti(stat, span, args, kwargs, result):
    ws = _arg(args, kwargs, 0, "ws")
    stat.add("subsets", 2 ** len(ws.weights))
    stat.distinct.add((ws.weights, ws.degree))


def _observe_count_monomials(stat, span, args, kwargs, result):
    weights = tuple(_arg(args, kwargs, 0, "weights"))
    target = _arg(args, kwargs, 1, "target")
    stat.add("cells", len(weights) * (target + 1))
    stat.distinct.add((weights, target))


def _observe_quasi_smooth(stat, span, args, kwargs, result):
    stat.add("accepted", int(bool(result)))


def _observe_certify(stat, span, args, kwargs, result):
    stat.add("bp_applicable", int(result.bp_applicable))


def _observe_render(stat, span, args, kwargs, result):
    stat.add("bytes", len(result.encode("utf-8")))


def _observe_generator(stat, span, args, kwargs, result):
    cfg = kwargs.get("cfg", args[-1] if args else None)
    stat.add(f"thread_budget={cfg.thread_budget}", 1)
    if span.parent is not None and span.parent.name == "survey.generator":
        return  # scan_all delegates to the other generators; count once
    rows = getattr(result, "records", result)
    stat.add("records", len(rows))
    for row in rows:
        base = getattr(row, "base", None) or row.system
        stat.distinct.add((base.weights, base.degree))


OBSERVERS = {
    "topology.milnor_orlik_betti": _observe_betti,
    "arith.count_monomials": _observe_count_monomials,
    "links.quasi_smooth_generic": _observe_quasi_smooth,
    "ke_cert.certify_cover": _observe_certify,
    "cli.render_catalog": _observe_render,
    "cli.render_euclidean_rows": _observe_render,
    "survey.generator": _observe_generator,
}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._per_thread: list[dict[str, Stat]] = []
        self._home = self._state()[0]

    def _state(self) -> tuple[list, dict, dict]:
        """This thread's span stack, statistics, and CPU gaps per adopted parent."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {}, {})
            self._per_thread.append(state[1])  # list.append is atomic
            return state

    def stats(self) -> dict[str, Stat]:
        merged: dict[str, Stat] = {}
        for stats in self._per_thread:
            for name, stat in stats.items():
                merged.setdefault(name, Stat()).merge(stat)
        return merged

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        home = self._home
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, stats, gaps = local.state
            except AttributeError:
                stack, stats, gaps = self._state()
            if stack:
                parent, adopted = stack[-1], False
            else:
                parent = home[-1] if home else None
                adopted = parent is not None
            span = Span(name, parent)
            stack.append(span)
            wall0 = perf_counter()
            cpu0 = thread_time()
            if adopted:
                gap = gaps.get(parent)
                if gap is None:
                    gap = gaps[parent] = [0.0, cpu0]
                    parent.foreign.append(gap)  # list.append is atomic
                gap[0] += cpu0 - gap[1]
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = thread_time()
                wall1 = perf_counter()
                stack.pop()
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = Stat()
                cpu = cpu1 - cpu0
                stat.calls += 1
                stat.total_s += wall1 - wall0
                stat.self_s += cpu - span.children_cpu
                if span.foreign:
                    stat.self_s += sum(g[0] for g in span.foreign)
                if adopted:
                    gap[1] = cpu1
                elif parent is not None:
                    parent.children_cpu += cpu
            if observe is not None:
                observe(stat, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the TRACED functions and the GENERATORS at every binding site."""
        modules = {short: importlib.import_module(f"selinks.{short}") for short in MODULES}
        wanted = {name: name for name in TRACED}
        wanted.update({f"survey.{attr}": "survey.generator" for attr in GENERATORS})
        wrappers = {}
        for qualified, name in wanted.items():
            short, attr = qualified.split(".")
            fn = getattr(modules[short], attr, None)
            if not (inspect.isfunction(fn) and fn.__module__ == modules[short].__name__):
                raise SystemExit(f"trace.py: selinks.{qualified} is not a function defined there")
            wrappers[fn] = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "selinks" and not modname.startswith("selinks."):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)


def main(spec_path: str, stats_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["selinks.cli"]
    codes = []
    for args, stderr_path in spec["invocations"]:
        with open(stderr_path, "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
            try:
                codes.append(cli.main(args))
            except Exception:
                traceback.print_exc()
                codes.append(1)
    for path in spec["parse"]:
        cli.parse_catalog_json(Path(path).read_text(encoding="utf-8"))
    stats = {name: stat.as_json() for name, stat in sorted(tracer.stats().items())}
    Path(stats_path).write_text(
        json.dumps({"exit_codes": codes, "functions": stats}, indent=1),
        encoding="utf-8",
    )
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
