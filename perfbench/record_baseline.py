"""Record the catalog sha256 values that later runs must reproduce.

    python3 perfbench/record_baseline.py

Runs one checked operation of each workload (ingest once for each seed in
workloads.BASELINE_SEEDS) against the sources in ./src and writes the sha256
of every catalog into baseline_sha256.json.  Nothing is written if any
operation fails its checks.  Re-record only when a change is meant to alter
catalog bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from workloads import BASELINE_SEEDS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    catalogs = {}
    for name, cls in sorted(WORKLOADS.items()):
        for seed in BASELINE_SEEDS if cls.seeded else [0]:
            work = run.ROOT / ".perfbench_work" / f"record-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            outputs = run.Outputs(cls(work, seed))
            outputs.baseline = {}
            op = run.run_untraced(outputs.wl, env, outputs, time.perf_counter() + run.CHILD_MARGIN_S)
            if op["problems"]:
                print(f"{name} seed {seed}: {op['problems']}", file=sys.stderr)
                return 1
            for label, digest in op["sha256"].items():
                catalogs[outputs.baseline_key(label)] = digest
            print(f"{name} seed {seed}: recorded", flush=True)
    facts = run.machine_facts()
    payload = {"git_sha": facts["git_sha"], "src_sha256": facts["src_sha256"], "catalogs": catalogs}
    run.BASELINE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
