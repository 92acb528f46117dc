"""Benchmark of the selinks command line.

    python3 perfbench/run.py --workload {families,euclidean,ingest} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
./src and nothing needs installing.  The workloads are described in
workloads.py.

--trace 0  runs the workload's CLI children one at a time, in a closed
           loop, for about S seconds (at least one operation), and prints
           the end-to-end metrics: wall_s (less host steal, see
           stolen_s), cpu_s (from wait4, per child) and peak_rss_mb (each
           child's own VmHWM) of the children, items_per_s, setup_s
           (the median wall time, less steal, of `selinks --version`) and
           fail_ratio.
--trace 1  alternates an untraced operation with a traced one (trace.py)
           for about S seconds and prints the per-layer metrics: exact
           counts first, then self times (CPU time of the calling thread),
           then trace.overhead_ratio (traced cli.main wall time over the
           untraced operation's wall time).

Every operation's outputs are checked (workloads.py) and their sha256
recorded.  A catalog whose sha256 differs between operations of one run,
or from the value recorded in baseline_sha256.json, fails the operation.
An ingest seed outside workloads.BASELINE_SEEDS has no recorded value: the
run says that byte identity with the baseline was not checked.
The known-defect probe `ingest_row_isolation` runs once, untimed, and is
reported but never counted against the workload.  Everything measured goes
to .perfbench_work/<workload>-seed<N>-trace<T>/results.json.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from workloads import BASELINE_SEEDS, DIAGNOSTIC, WORKLOADS, Problems, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline_sha256.json"
# `python3 -c LAUNCH PEAK ARGS...` runs the CLI on ARGS and writes the
# child's own peak RSS (the VmHWM line of /proc/self/status) to PEAK as it
# exits.  ru_maxrss from wait4 will not do: at exec, Linux folds the
# forking process's high-water RSS into the child's, so every child would
# read at least the benchmark's own peak (~78 MiB once it has checked an
# ingest catalog).
LAUNCH = """\
import sys
from selinks.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status", encoding="ascii") as status, open(sys.argv[1], "w", encoding="ascii") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
SETUP_RUNS = 15
# children still running this long after the measuring time are killed
CHILD_MARGIN_S = 120.0
PROBE_ROWS = ("1,1,1;3", "foo", "1,1;0", "2,2,2;6")


class Child(NamedTuple):
    code: int
    wall_s: float  # spawn to exit
    cpu_s: float
    stolen_s: float  # host steal on the CPUs the child ran on


def cpu_ticks() -> list[tuple[int, int]]:
    """(busy, steal) clock ticks of each CPU so far, from /proc/stat; [] if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and not line.startswith("cpu ")]
        # user nice system idle iowait irq softirq steal ...
        return [(sum(int(row[i]) for i in (1, 2, 3, 6, 7)), int(row[8])) for row in rows]
    except (OSError, IndexError, ValueError):
        return []


def stolen_s(before: list[tuple[int, int]], after: list[tuple[int, int]]) -> float:
    """Seconds the host took from the CPUs this machine was busy on between two cpu_ticks().

    A vCPU's steal is time the hypervisor ran another guest while this one
    wanted the CPU.  It stretches a child's wall time but is no work of the
    program, and on a shared host it comes and goes by the minute.  Each
    CPU's steal counts in proportion to the busy ticks it had, so a child
    running on one CPU is charged about that CPU's steal, whether or not the
    host also steals from the idle one.
    """
    if not before or len(before) != len(after):
        return 0.0
    deltas = [(b1 - b0, s1 - s0) for (b0, s0), (b1, s1) in zip(before, after)]
    busy = sum(b for b, _ in deltas)
    if busy <= 0:
        return 0.0
    return sum(b * s for b, s in deltas) / busy / os.sysconf("SC_CLK_TCK")


def run_child(argv: list[str], env: dict, stdout: Path, stderr: Path, deadline: float) -> Child:
    """Run one child to completion; its own CPU time comes from wait4."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        ticks = cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        stolen = min(stolen_s(ticks, cpu_ticks()), end - start)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, end - start, usage.ru_utime + usage.ru_stime, stolen)


def launch(args: list[str], peak: Path) -> list[str]:
    """argv of a CLI child that writes its peak RSS to `peak`."""
    return [sys.executable, "-c", LAUNCH, str(peak), *args]


def peak_rss_mib(peak: Path) -> float:
    """The VmHWM a child wrote, in MiB; 0 if it wrote none."""
    fields = read(peak).split()
    return int(fields[1]) / 1024 if len(fields) == 3 and fields[2] == "kB" else 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SELINKS_THREADS", None)  # the CLI then uses os.cpu_count()
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


def machine_facts() -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": os.cpu_count(),  # SELINKS_THREADS is removed from the child environment
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(work: Path, env: dict, deadline: float) -> list[Child]:
    argv = launch(["--version"], work / "version.peak")
    runs = [run_child(argv, env, work / "version.out", work / "version.err", deadline) for _ in range(SETUP_RUNS + 1)]
    return runs[1:]  # the first run fills the bytecode cache


def probe_row_isolation(work: Path, env: dict, deadline: float) -> dict:
    """Known defect: one non-reduced row aborts a whole ingest batch.

    Passing means exit 0, a diagnostic for each malformed row (lines 2 and
    3), and records for the good row (1,1,1;3).
    """
    rows = work / "probe-rows.txt"
    rows.write_text("\n".join(PROBE_ROWS) + "\n", encoding="utf-8")
    argv = launch(["ingest", str(rows), "--format", "json"], work / "probe.peak")
    child = run_child(argv, env, work / "probe.out", work / "probe.err", deadline)
    out = read(work / "probe.out")
    diagnosed = {int(n) for n in DIAGNOSTIC.findall(read(work / "probe.err"))} & {2, 3}
    try:
        kept = any(
            rec["base"] == {"weights": [1, 1, 1], "degree": 3} for rec in json.loads(out)["records"]
        )
    except (ValueError, KeyError, TypeError):
        kept = False
    return {
        "name": "ingest_row_isolation",
        "passed": child.code == 0 and len(diagnosed) == 2 and kept,
        "detail": f"exit {child.code}, {len(out.encode())} bytes on stdout, "
        f"{len(diagnosed)} of 2 malformed-row diagnostics, (1,1,1;3) records "
        f"{'kept' if kept else 'lost'}",
    }


class Outputs:
    """Checks an operation's catalogs, once per distinct set of outputs."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.verdicts: dict[tuple, tuple[int, list[str]]] = {}
        self.reference: dict[str, str] | None = None
        recorded = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
        self.baseline = recorded.get("catalogs", {})
        self.unrecorded: set[str] = set()  # catalogs without a baseline sha256

    def baseline_key(self, label: str) -> str:
        key = f"{self.wl.name}/{label}"
        return f"{key}/seed={self.wl.seed}" if self.wl.seeded else key

    def inspect(self, op: dict) -> None:
        catalogs, stderr = {}, {}
        for inv in self.wl.invocations():
            catalogs[inv.label] = read(inv.out)
            stderr[inv.label] = read(self.wl.work / f"{inv.label}.stderr")
        op["sha256"] = shas = {label: sha256(text.encode()) for label, text in catalogs.items()}
        problems = op["problems"]
        for label, text in stderr.items():
            problems.expect("Traceback (most recent call last)" not in text, f"{label}: traceback on stderr")
        key = tuple(sorted(shas.items())) + tuple(sha256(stderr[k].encode()) for k in sorted(stderr))
        if key not in self.verdicts:
            try:
                items, found = self.wl.check(catalogs, stderr)
            except Exception:  # malformed output must fail the operation, not the benchmark
                items, found = 0, [f"output check raised:\n{traceback.format_exc()}"]
            self.verdicts[key] = items, list(found)
        op["items"], found = self.verdicts[key]
        problems.extend(found)
        if self.reference is None:
            self.reference = shas
        problems.expect(shas == self.reference, "catalog sha256 differs from the first operation of this run")
        for label, digest in shas.items():
            key = self.baseline_key(label)
            recorded = self.baseline.get(key)
            if recorded is None:
                self.unrecorded.add(key)
            else:
                problems.expect(recorded == digest, f"{label}: catalog sha256 differs from baseline_sha256.json")

    def baseline_verdict(self) -> tuple[str, list[str]]:
        """(what the baseline comparison showed, run problems)."""
        if not self.unrecorded:
            return "every catalog matches baseline_sha256.json", []
        missing = ", ".join(sorted(self.unrecorded))
        if self.wl.seeded and self.wl.seed not in BASELINE_SEEDS:
            seeds = f"{BASELINE_SEEDS.start}..{BASELINE_SEEDS.stop - 1}"
            return f"NOT CHECKED: baseline_sha256.json records ingest seeds {seeds} only ({missing})", []
        return f"NOT CHECKED: baseline_sha256.json lacks {missing}", [
            f"baseline_sha256.json lacks {missing}; re-record it with record_baseline.py"
        ]


def run_untraced(wl: Workload, env: dict, outputs: Outputs, deadline: float) -> dict:
    children, peaks = [], []
    for inv in wl.invocations():
        inv.out.unlink(missing_ok=True)
        peak = wl.work / f"{inv.label}.peak"
        peak.unlink(missing_ok=True)
        argv = launch(list(inv.args), peak)
        children.append(run_child(argv, env, wl.work / f"{inv.label}.stdout", wl.work / f"{inv.label}.stderr", deadline))
        peaks.append(peak_rss_mib(peak))
    op = {
        "traced": False,
        "wall_s": sum(c.wall_s - c.stolen_s for c in children),
        "raw_wall_s": sum(c.wall_s for c in children),
        "stolen_s": sum(c.stolen_s for c in children),
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(peaks),
        "exit_codes": [c.code for c in children],
        "problems": Problems(),
    }
    for c, rss, inv in zip(children, peaks, wl.invocations()):
        op["problems"].expect(c.code == 0, f"{inv.label}: exit code {c.code}")
        op["problems"].expect(rss > 0, f"{inv.label}: wrote no peak RSS")
    outputs.inspect(op)
    return op


def run_traced(wl: Workload, env: dict, outputs: Outputs, deadline: float) -> dict:
    invocations = wl.invocations()
    spec = {
        "invocations": [[list(inv.args), str(wl.work / f"{inv.label}.stderr")] for inv in invocations],
        "parse": [str(inv.out) for inv in invocations] if wl.record_catalogs else [],
    }
    for inv in invocations:
        inv.out.unlink(missing_ok=True)
    spec_path, stats_path = wl.work / "trace-spec.json", wl.work / "trace-stats.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    stats_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "trace.py"), str(spec_path), str(stats_path)]
    child = run_child(argv, env, wl.work / "trace.stdout", wl.work / "trace.stderr", deadline)
    op = {"traced": True, "exit_codes": [child.code], "problems": Problems()}
    problems = op["problems"]
    problems.expect(child.code == 0, f"traced run: exit code {child.code}: {read(wl.work / 'trace.stderr')[-2000:]}")
    outputs.inspect(op)
    if not stats_path.exists():
        problems.append("traced run wrote no statistics")
        return op
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    op["functions"] = functions = stats["functions"]
    op["exit_codes"] += stats["exit_codes"]
    op["counts"], op["times"] = layer_values(functions)
    for name in wl.busy:
        problems.expect(
            functions.get(name, {}).get("calls", 0) > 0,
            f"traced run: {name} recorded no calls, but this workload runs it",
        )
    return op


def layer_values(functions: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced operation: (exact counts, timings).

    Each maps a metric name to (value, unit).  Counts and ratios of counts
    come from call arguments and results, so they repeat exactly.
    """
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}, "distinct": 0}

    def fn(name: str) -> dict:
        return functions.get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts: dict[str, tuple] = {}
    times: dict[str, tuple] = {}
    for name, work in (("topology.milnor_orlik_betti", "subsets"), ("arith.count_monomials", "cells")):
        stat = fn(name)
        counts[f"{name}.calls"] = (stat["calls"], "count")
        counts[f"{name}.{work}"] = (stat["counts"].get(work, 0), "count")
        counts[f"{name}.distinct_ratio"] = (ratio(stat["distinct"], stat["calls"]), "ratio")
        times[f"{name}.self_s"] = (stat["self_s"], "s")
    for name in ("moduli.moduli_count", "topology.genus", "ke_cert.certify_cover",
                 "ke_cert.bp_sufficient_ke", "links.quasi_smooth_generic", "links.branched_cover"):
        counts[f"{name}.calls"] = (fn(name)["calls"], "count")
        times[f"{name}.self_s"] = (fn(name)["self_s"], "s")
    cert = fn("ke_cert.certify_cover")
    counts["ke_cert.certify_cover.bp_applicable_ratio"] = (
        ratio(cert["counts"].get("bp_applicable", 0), cert["calls"]), "ratio")
    qsg = fn("links.quasi_smooth_generic")
    counts["links.quasi_smooth_generic.accept_ratio"] = (
        ratio(qsg["counts"].get("accepted", 0), qsg["calls"]), "ratio")
    times["topology.torsion_order.self_s"] = (fn("topology.torsion_order")["self_s"], "s")
    gen = fn("survey.generator")
    records, bases = gen["counts"].get("records", 0), gen["distinct"]
    counts["survey.records"] = (records, "count")
    counts["survey.bases"] = (bases, "count")
    counts["survey.records_per_base"] = (ratio(records, bases), "ratio")
    times["survey.generator.self_s"] = (gen["self_s"], "s")
    counts["cli.render_catalog.bytes"] = (fn("cli.render_catalog")["counts"].get("bytes", 0), "B")
    times["cli.render_catalog.self_s"] = (fn("cli.render_catalog")["self_s"], "s")
    times["cli.render_euclidean_rows.self_s"] = (fn("cli.render_euclidean_rows")["self_s"], "s")
    times["cli.parse_catalog_json.s"] = (fn("cli.parse_catalog_json")["total_s"], "s")
    times["cli.main.s"] = (fn("cli.main")["total_s"], "s")
    return counts, times


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def end_to_end(ops: list[dict], setup: list[Child]) -> dict:
    """Samples of each end-to-end metric: name -> (values, unit)."""
    return {
        "wall_s": ([op["wall_s"] for op in ops], "s"),
        "cpu_s": ([op["cpu_s"] for op in ops], "s"),
        "setup_s": ([c.wall_s - c.stolen_s for c in setup], "s"),
        "peak_rss_mb": ([op["peak_rss_mb"] for op in ops], "MiB"),
        "items_per_s": ([op["items"] / op["wall_s"] for op in ops], "1/s"),
    }


def per_layer(ops: list[dict]) -> tuple[dict, dict, list[str]]:
    """(counts, timing samples, problems) over the traced operations of a run."""
    traced = [op for op in ops if op["traced"] and "counts" in op]
    if not traced:
        return {}, {}, ["no traced operation produced statistics"]
    problems = []
    exact = [
        {name: (f["calls"], f["counts"], f["distinct"]) for name, f in op["functions"].items()}
        for op in traced
    ]
    if any(e != exact[0] for e in exact):
        problems.append("exact counts differ between traced operations of the same code and seed")
    times = {name: ([op["times"][name][0] for op in traced], unit) for name, (_, unit) in traced[0]["times"].items()}
    walls = [op["raw_wall_s"] for op in ops if not op["traced"]]
    mains = times["cli.main.s"][0]
    times["trace.overhead_ratio"] = ([m / w for m, w in zip(mains, walls)], "ratio")
    return traced[0]["counts"], times, problems


def _terminate(signum: int, frame) -> None:
    # unwinds through run_child, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "selinks" / "cli.py").is_file():
        print(f"run.py: no selinks sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks parse catalogs with the library
    signal.signal(signal.SIGTERM, _terminate)

    started = time.perf_counter()
    deadline = started + args.seconds + CHILD_MARGIN_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    wl = WORKLOADS[args.workload](work, args.seed)
    outputs = Outputs(wl)

    setup = measure_setup(work, env, deadline)
    probe = probe_row_isolation(work, env, deadline)
    # closed loop: the next operation starts when the previous one ends, and
    # only if it is expected to finish within the measuring time
    ops = []
    ticks_start = cpu_ticks()
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        ops.append(run_untraced(wl, env, outputs, deadline))
        if args.trace:
            ops.append(run_traced(wl, env, outputs, deadline))
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    loop_s = time.perf_counter() - loop_start
    ticks_end = cpu_ticks()
    run_problems = [f"selinks --version exited {c.code}" for c in setup if c.code != 0]
    baseline, found = outputs.baseline_verdict()
    run_problems += found
    if args.trace:
        counts, timings, found = per_layer(ops)
        run_problems += found
    else:
        timings = end_to_end(ops, setup)
        counts = {}
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and not run_problems
    facts = machine_facts()
    facts["loop_s"] = loop_s
    steal = sum(s1 - s0 for (_, s0), (_, s1) in zip(ticks_start, ticks_end))
    facts["host_steal_s"] = steal / os.sysconf("SC_CLK_TCK") if ticks_start and ticks_end else None
    untraced = [op for op in ops if not op["traced"]]
    facts["stolen_s_per_op"] = statistics.median(op["stolen_s"] for op in untraced)
    facts["raw_wall_s_per_op"] = statistics.median(op["raw_wall_s"] for op in untraced)
    # traced runs see the thread budget the CLI resolved (ScanConfig.thread_budget)
    facts["traced_thread_budgets"] = sorted(
        {key for op in ops if "functions" in op for key in op["functions"]["survey.generator"]["counts"]
         if key.startswith("thread_budget=")}
    )

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "run_problems": run_problems,
        "checks": [probe],
        "sha256": outputs.reference,
        "baseline": baseline,
        "setup_s": [c.wall_s - c.stolen_s for c in setup],
        "counts": {name: {"value": v, "unit": u} for name, (v, u) in counts.items()},
        "timings": {name: {"samples": v, "unit": u} for name, (v, u) in timings.items()},
        "operations": ops,
    }
    (work / "results.json").write_text(json.dumps(report, indent=1, default=list) + "\n", encoding="utf-8")
    print_report(report, ops, timings, counts, work)

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in counts.items()}
    metrics.update(
        {name: {"value": statistics.median(values), "unit": unit} for name, (values, unit) in timings.items()}
    )
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


def print_report(report: dict, ops: list[dict], timings: dict, counts: dict, work: Path) -> None:
    m = report["machine"]
    print(f"selinks benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    traced = "".join(f" traced:{budget}" for budget in m["traced_thread_budgets"])
    print(f"machine: nproc={m['nproc']} cpu_count={m['cpu_count']} threads={m['threads']}{traced} "
          f"python={m['implementation']} {m['python']} "
          f"git={m['git_sha'] or 'unknown'} src_sha256={m['src_sha256'][:16]}")
    if m["host_steal_s"] is not None:
        print(f"host steal: {m['host_steal_s']:.2f} CPU-s over the {m['loop_s']:.1f} s measuring loop "
              f"({m['nproc']} CPUs); per untraced operation, median spawn-to-exit "
              f"{m['raw_wall_s_per_op']:.6g} s, of which {m['stolen_s_per_op']:.6g} s stolen "
              f"and left out of wall_s")
    for label, digest in (report["sha256"] or {}).items():
        print(f"catalog sha256 {label}: {digest}")
    print(f"catalog sha256 baseline: {report['baseline']}")
    for check in report["checks"]:
        state = "passing" if check["passed"] else "FAILING (known defect, not counted against the workload)"
        print(f"check {check['name']}: {state}: {check['detail']}")
    for op_index, op in enumerate(ops):
        for problem in op["problems"][:5]:
            print(f"operation {op_index} failed: {problem}")
    for problem in report["run_problems"]:
        print(f"run failed: {problem}")
    if counts:
        print("exact counts (identical for every traced operation of the same code and seed):")
        for name, (value, unit) in counts.items():
            print(f"  {name:<44} {value:>14} {unit}")
    print("timings: median [q1, q3] over n samples")
    for name, (values, unit) in timings.items():
        med, q1, q3 = spread(values)
        print(f"  {name:<44} {med:>12.6g} {unit:<5} [{q1:.6g}, {q3:.6g}]  n={len(values)}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'fail_ratio':<44} {failed / attempted:>12.6g} ratio [{failed}/{attempted} operations failed]  n={attempted}")
    print(f"details: {work / 'results.json'}")


if __name__ == "__main__":
    sys.exit(main())
