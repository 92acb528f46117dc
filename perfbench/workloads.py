"""The benchmark's workloads: CLI invocations, seeded inputs, output checks.

All three are closed loops: one benchmark process runs one CLI child at a
time with the CLI's default thread budget (os.cpu_count()).  The seed only
changes the ingest rows and which records the spot checks sample.

families   `scan fermat-cy|theorem2|hyperbolic|mixed-canonical --k-bound 400
           --m 3..10`, four children timed as one operation.  Few bases with
           many k each (8 Fermat Calabi-Yau bases carry 1882 records), so it
           is dominated by the Milnor-Orlik sum and monomial counting, which
           run once per (base, k).  This is where per-base reuse must show.
euclidean  `scan euclidean --weight-bound 150`: pure enumeration plus the
           quasi-smoothness filter (about 475k candidate tests, 3 rows kept).
           It bypasses topology, moduli, certificates and catalog rendering,
           so a change confined to those must leave it unchanged.
ingest     a seeded file of 2000 rows through `ingest` with the default k
           range 2..60: many distinct bases (~180) with few k each, ~90% of
           rows rejected with a row diagnostic, mostly the non-Brieskorn-Pham
           certificate path, genus for m = 3, and the largest catalog.  Rows
           are drawn reduced (gcd of the weights 1) on purpose: one
           non-reduced row currently aborts the whole batch (exit 2, every
           diagnostic lost), which would make this workload time a crash
           and make the fix read as a slowdown.  That defect is probed once
           per invocation, outside the timed load, as `ingest_row_isolation`.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from oracles import (
    betti_subset_sum,
    cover_system,
    fermat_betti,
    fermat_cy_moduli,
    hyperbolic_moduli,
    monomial_count,
    quasi_smooth,
)

FAMILY_SCANS = ("fermat-cy", "theorem2", "hyperbolic", "mixed-canonical")
K_BOUND = 400
M_RANGE = (3, 10)
WEIGHT_BOUND = 150
INGEST_ROWS = 2000
INGEST_RECORDS_PER_M = 1300
INGEST_K_RANGE = (2, 60)  # the CLI default, restated for the checks
MALFORMED_ROWS = ("foo", "1,1;0")
SPOT_CHECKS = 24
# ingest seeds whose catalog sha256 baseline_sha256.json records
BASELINE_SEEDS = range(32)
EUCLIDEAN_CLASSES = [((1, 1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)]

DIAGNOSTIC = re.compile(r"^ingest: line (\d+):", re.MULTILINE)


@dataclass(frozen=True)
class Invocation:
    """One CLI child: its arguments and the catalog it writes with --out."""

    label: str
    args: tuple[str, ...]
    out: Path


class Problems(list):
    """Failed output checks, one message each."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _catalog_args(out: Path) -> tuple[str, ...]:
    return ("--format", "json", "--out", str(out))


def spot_check(records: list[dict], rng: random.Random, problems: Problems) -> None:
    """Compare a seeded sample of records with the benchmark-local oracles."""
    for rec in rng.sample(records, min(SPOT_CHECKS, len(records))):
        w, d, k = tuple(rec["base"]["weights"]), rec["base"]["degree"], rec["k"]
        where = f"{rec['family']} {w};{d} k={k}"
        b = betti_subset_sum(w, d)
        problems.expect(
            b.denominator == 1
            and (rec["torsion"]["base"], rec["torsion"]["exponent"]) == (k, b),
            f"{where}: torsion {rec['torsion']} but the subset sum gives {k}^{b}",
        )
        if len(w) == 3:
            problems.expect(2 * rec["genus"] == b, f"{where}: genus {rec['genus']} but b = {b}")
        cw, cd = cover_system(k, w, d)
        h0_d = monomial_count(cw, cd)
        h0_w = sum(monomial_count(cw, x) for x in cw)
        mu = h0_d - h0_w
        expected = {"complex": mu, "real": 2 * max(mu, 0), "h0_degree": h0_d, "h0_weights_sum": h0_w}
        problems.expect(rec["moduli"] == expected, f"{where}: moduli {rec['moduli']}, expected {expected}")


def roundtrip(text: str, problems: Problems, label: str) -> None:
    """parse_catalog_json followed by render_catalog must give the same bytes."""
    from selinks.cli import parse_catalog_json, render_catalog
    from selinks.survey import ScanConfig

    meta, records = parse_catalog_json(text)
    bounds = meta["bounds"]
    cfg = ScanConfig(
        weight_bound=bounds["weight_bound"],
        k_bound=bounds["k_bound"],
        m_range=tuple(bounds["m_range"]),
        k_min=bounds["k_min"],
    )
    again = render_catalog(records, "json", cfg, meta["expand_torsion"])
    problems.expect(again == text, f"{label}: parse then re-render is not byte-identical")


class Workload:
    name = ""
    # traced functions that must record calls on this workload
    busy: tuple[str, ...] = ()
    # whether the outputs are record catalogs (parse_catalog_json reads them)
    record_catalogs = True
    # whether the catalog bytes depend on the seed
    seeded = False

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def invocations(self) -> list[Invocation]:
        raise NotImplementedError

    def check(self, catalogs: dict[str, str], stderr: dict[str, str]) -> tuple[int, Problems]:
        """(items, problems) for one operation's outputs."""
        raise NotImplementedError


# layers every record catalog goes through; whether the Brieskorn-Pham test
# runs depends on the bases, so only `families` requires it
_CATALOG_BUSY = (
    "topology.milnor_orlik_betti",
    "topology.torsion_order",
    "topology.genus",
    "arith.count_monomials",
    "moduli.moduli_count",
    "ke_cert.certify_cover",
    "links.branched_cover",
    "survey.generator",
    "cli.render_catalog",
    "cli.parse_catalog_json",
    "cli.main",
)


class Families(Workload):
    name = "families"
    busy = _CATALOG_BUSY + ("ke_cert.bp_sufficient_ke",)

    def invocations(self) -> list[Invocation]:
        lo, hi = M_RANGE
        return [
            Invocation(
                family,
                ("scan", family, "--k-bound", str(K_BOUND), "--m", f"{lo}..{hi}")
                + _catalog_args(self.work / f"{family}.json"),
                self.work / f"{family}.json",
            )
            for family in FAMILY_SCANS
        ]

    def check(self, catalogs, stderr):
        problems = Problems()
        docs = {label: json.loads(text) for label, text in catalogs.items()}
        for label, text in catalogs.items():
            roundtrip(text, problems, label)
        lo, hi = M_RANGE

        fermat = docs["fermat-cy"]["records"]
        problems.expect(
            sorted((r["m"], r["k"]) for r in fermat)
            == [(m, k) for m in range(lo, hi + 1) for k in range(2, K_BOUND + 1) if math.gcd(k, m) == 1],
            "fermat-cy: records do not cover exactly the (m, k) with gcd(k, m) = 1",
        )
        for r in fermat:
            m, k = r["m"], r["k"]
            problems.expect(r["torsion"]["exponent"] == fermat_betti(m, m), f"fermat-cy m={m} k={k}: torsion exponent")
            problems.expect(r["moduli"]["complex"] == fermat_cy_moduli(m), f"fermat-cy m={m} k={k}: complex moduli")
            problems.expect(
                r["certificate"]["bp_sufficient"] == (k > m * (m - 1)),
                f"fermat-cy m={m} k={k}: bp_sufficient does not flip at k > m(m-1)",
            )

        hyperbolic = docs["hyperbolic"]["records"]
        problems.expect(len(hyperbolic) > 0, "hyperbolic: no records")
        for r in hyperbolic:
            m, l, k = r["m"], r["l_or_d"], r["k"]
            problems.expect(r["base"] == {"weights": [1] * m, "degree": l}, f"hyperbolic m={m} l={l}: base")
            problems.expect(r["torsion"]["exponent"] == fermat_betti(m, l), f"hyperbolic m={m} l={l} k={k}: torsion exponent")
            problems.expect(r["moduli"]["complex"] == hyperbolic_moduli(m, l), f"hyperbolic m={m} l={l} k={k}: complex moduli")

        theorem2 = docs["theorem2"]["records"]
        problems.expect(
            sorted((r["l_or_d"], r["k"]) for r in theorem2)
            == [(d, k) for _, d in EUCLIDEAN_CLASSES for k in range(2, K_BOUND + 1) if math.gcd(k, d) == 1],
            "theorem2: records do not cover exactly the (d, k) with gcd(k, d) = 1",
        )
        for r in theorem2:
            problems.expect(
                (r["torsion"]["exponent"], r["genus"]) == (2, 1),
                f"theorem2 d={r['l_or_d']} k={r['k']}: expected torsion k^2 and genus 1",
            )

        mixed = docs["mixed-canonical"]["records"]
        problems.expect(
            [(r["m"], r["k"]) for r in mixed] == [(m, 2 * m - 1) for m in range(lo, hi + 1)],
            "mixed-canonical: expected one record with k = 2m-1 per m",
        )
        for r in mixed:
            problems.expect(r["certificate"]["bp_sufficient"], f"mixed-canonical m={r['m']}: not certified")

        rng = random.Random(self.seed)
        spot_check([r for doc in docs.values() for r in doc["records"]], rng, problems)
        return sum(doc["meta"]["count"] for doc in docs.values()), problems


class Euclidean(Workload):
    name = "euclidean"
    busy = (
        "links.quasi_smooth_generic",
        "survey.generator",
        "cli.render_euclidean_rows",
        "cli.main",
    )
    record_catalogs = False

    def invocations(self) -> list[Invocation]:
        out = self.work / "euclidean.json"
        return [Invocation("euclidean", ("scan", "euclidean", "--weight-bound", str(WEIGHT_BOUND)) + _catalog_args(out), out)]

    def check(self, catalogs, stderr):
        problems = Problems()
        doc = json.loads(catalogs["euclidean"])
        got = [(tuple(row["weights"]), row["degree"]) for row in doc["rows"]]
        problems.expect(got == EUCLIDEAN_CLASSES, f"euclidean: rows {got}, expected {EUCLIDEAN_CLASSES}")
        problems.expect(doc["meta"]["count"] == len(doc["rows"]), "euclidean: meta count differs from the rows")
        for row in doc["rows"]:
            expected = monomial_count(tuple(row["weights"]), row["degree"])
            problems.expect(row["monomials"] == expected, f"euclidean {row['weights']}: {row['monomials']} monomials, expected {expected}")
        # items are the candidate triples w1 <= w2 <= w3 <= bound in the search space
        return math.comb(WEIGHT_BOUND + 2, 3), problems


class Ingest(Workload):
    name = "ingest"
    busy = _CATALOG_BUSY + ("links.quasi_smooth_generic",)
    seeded = True

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.rows_path = work / "ingest-rows.txt"
        self.rows = ingest_rows(seed)
        self.rows_path.write_text("\n".join(self.rows.lines) + "\n", encoding="utf-8")

    def invocations(self) -> list[Invocation]:
        out = self.work / "ingest.json"
        return [Invocation("ingest", ("ingest", str(self.rows_path)) + _catalog_args(out), out)]

    def check(self, catalogs, stderr):
        problems = Problems()
        text = catalogs["ingest"]
        roundtrip(text, problems, "ingest")
        doc = json.loads(text)
        records = doc["records"]
        rows = self.rows
        reported = [int(n) for n in DIAGNOSTIC.findall(stderr["ingest"])]
        problems.expect(
            len(reported) == len(rows.diagnosed) and set(reported) == rows.diagnosed,
            f"ingest: {len(reported)} row diagnostics, expected {len(rows.diagnosed)} "
            f"({rows.malformed} malformed + {len(rows.diagnosed) - rows.malformed} not quasi-smooth)",
        )
        got = sorted((tuple(r["base"]["weights"]), r["base"]["degree"], r["k"]) for r in records)
        problems.expect(got == rows.keys, f"ingest: {len(got)} records, expected {len(rows.keys)} (base, k) pairs")
        spot_check(records, random.Random(self.seed), problems)
        return doc["meta"]["count"], problems


class IngestRows(NamedTuple):
    lines: list[str]
    malformed: int
    diagnosed: set[int]  # line numbers that must get a row diagnostic
    keys: list[tuple]  # sorted (weights, d, k) of the records the other rows yield


def _branch_orders(d: int) -> list[int]:
    lo, hi = INGEST_K_RANGE
    return [k for k in range(lo, hi + 1) if math.gcd(k, d) == 1]


def ingest_rows(seed: int) -> IngestRows:
    """The seeded ingest file, with what the CLI must make of each line.

    Systems are drawn with m uniform on 3..6, weights uniform on 1..12,
    sorted and redrawn until their gcd is 1, and d uniform on
    [max w + 1, 3 max w + 6].  Quasi-smooth draws (by the local oracle) are
    kept while their m still owes records, so every seed asks for about
    INGEST_RECORDS_PER_M records per m and the work varies little between
    seeds; other draws fill the file to INGEST_ROWS rows, 2% of them
    malformed.  Rows are shuffled and follow a comment line.
    """
    rng = random.Random(seed)
    owed = {m: INGEST_RECORDS_PER_M for m in range(3, 7)}
    malformed = INGEST_ROWS // 50
    kept: list[tuple] = []
    rejected: list[tuple] = []
    while any(n > 0 for n in owed.values()) or len(rejected) < INGEST_ROWS - malformed - len(kept):
        m = rng.randint(3, 6)
        while True:
            w = tuple(sorted(rng.randint(1, 12) for _ in range(m)))
            if math.gcd(*w) == 1:
                break
        d = rng.randint(w[-1] + 1, 3 * w[-1] + 6)
        if quasi_smooth(w, d):
            if owed[m] > 0:
                owed[m] -= len(_branch_orders(d))
                kept.append((w, d))
        else:
            rejected.append((w, d))
    del rejected[INGEST_ROWS - malformed - len(kept):]
    entries = [(w, d, True) for w, d in kept] + [(w, d, False) for w, d in rejected]
    entries += [(None, rng.choice(MALFORMED_ROWS), False) for _ in range(malformed)]
    rng.shuffle(entries)
    lines = [f"# selinks benchmark ingest rows, seed {seed}"]
    diagnosed, keys = set(), []
    for w, d, good in entries:
        lines.append(d if w is None else ",".join(map(str, w)) + f";{d}")
        if good:
            keys += [(w, d, k) for k in _branch_orders(d)]
        else:
            diagnosed.add(len(lines))
    return IngestRows(lines, malformed, diagnosed, sorted(keys))


WORKLOADS = {cls.name: cls for cls in (Families, Euclidean, Ingest)}
