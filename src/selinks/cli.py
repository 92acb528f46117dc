"""Command line driver and catalog serialization.

The only module with side effects.  Subcommands map onto the library:
``invariants``, ``cover``, ``certify``, ``moduli``, ``scan`` and
``ingest``.  Exit codes distinguish failure classes: 0 success, 1 usage
error, 2 integrity error (an exact invariant came out impossible), 3 I/O
error, 4 resource budget exceeded.  Catalog output is deterministic:
byte-identical across runs, and the JSON form round-trips losslessly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence, get_type_hints

from . import __version__
from .arith import FactoredPower
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .ke_cert import bp_sufficient_ke
from .links import (
    WeightSystem,
    branched_cover,
    classify_case,
    normalize_cover,
    quasi_smooth_generic,
    torsion_hypothesis,
)
from .moduli import moduli_count
from .survey import (
    EuclideanRow,
    FamilyRecord,
    IngestResult,
    ScanConfig,
    generate_mixed_canonical,
    generate_theorem2_family,
    ingest_weight_list,
    scan_euclidean_classification,
    scan_fermat_cy,
    scan_hyperbolic,
)
from .topology import genus, milnor_orlik_betti, torsion_order

__all__ = [
    "Invocation",
    "parse_invocation",
    "render_catalog",
    "parse_catalog_json",
    "run",
    "main",
]

CATALOG_SCHEMA = "selinks.catalog/1"

_SCAN_FAMILIES = ("euclidean", "theorem2", "fermat-cy", "hyperbolic", "mixed-canonical")

@dataclass(frozen=True)
class Invocation:
    """One validated command line invocation."""

    subcommand: str
    options: dict
    output_format: str
    output_path: Optional[str]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on errors; route them through the
    # usage-error channel (exit 1) instead
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a range like 3..8, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range bounds in {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range must be ascending, got {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# scans are serial: the work is pure Python, so threads would only take
# turns on the interpreter lock; the flag is kept so old scripts still run
_THREADS_HELP = "accepted and ignored; scans run serially"


def _build_parser() -> _Parser:
    parser = _Parser(prog="selinks", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selinks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p: _Parser, formats=("table", "json")) -> None:
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    def add_system_flags(p: _Parser) -> None:
        p.add_argument("--weights", type=_int_list, required=True)
        p.add_argument("--degree", type=_positive_int, required=True)

    p = sub.add_parser("invariants", help="invariants of a base link")
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("cover", help="branched-cover data")
    p.add_argument("--k", type=int, required=True)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("certify", help="sufficiency test on exponents")
    p.add_argument("--exponents", type=_int_list, required=True)
    add_output_flags(p)

    p = sub.add_parser("moduli", help="parameter count of a cover system")
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("scan", help="generate a family catalog")
    p.add_argument("family", choices=_SCAN_FAMILIES)
    p.add_argument("--weight-bound", type=_positive_int, default=60)
    p.add_argument("--k-bound", type=_positive_int, default=60)
    p.add_argument("--m", type=_int_range, default=(3, 8), metavar="A..B")
    p.add_argument("--threads", type=_positive_int, default=None, help=_THREADS_HELP)
    p.add_argument("--expand-torsion", action="store_true")
    add_output_flags(p, formats=("table", "json", "csv"))

    p = sub.add_parser("ingest", help="certify a user-supplied weight list")
    p.add_argument("file")
    p.add_argument("--k-range", type=_int_range, default=(2, 60), metavar="A..B")
    p.add_argument("--threads", type=_positive_int, default=None, help=_THREADS_HELP)
    p.add_argument("--expand-torsion", action="store_true")
    add_output_flags(p, formats=("table", "json", "csv"))

    return parser


def parse_invocation(argv: Sequence[str]) -> Invocation:
    """Parse and validate argv into an Invocation; UsageError on any defect."""
    ns = _build_parser().parse_args(list(argv))
    options = vars(ns).copy()
    command = options.pop("command")
    if command == "cover" and ns.k < 2:
        raise UsageError(f"branch order k must be at least 2, got {ns.k}")
    return Invocation(
        subcommand=command,
        options=options,
        output_format=options.get("format", "table"),
        output_path=options.get("out"),
    )


# ---------------------------------------------------------------------------
# serialization


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _Codec(NamedTuple):
    """How a field value is written to JSON and to CSV, and read from JSON."""

    to_json: Callable[[Any, bool], Any]  # (value, expand_torsion)
    from_json: Callable[[Any], Any]
    to_text: Callable[[Any, bool], Any]


def _torsion_json(value: FactoredPower, expand: bool) -> dict:
    obj: dict = {"base": value.base, "exponent": value.exponent}
    if expand:
        obj["decimal"] = str(value.expand())
    return obj


_FRACTION = _Codec(
    lambda value, _: {"num": value.numerator, "den": value.denominator},
    lambda obj: Fraction(obj["num"], obj["den"]),
    lambda value, _: _frac_str(value),
)
_WEIGHTS = _Codec(
    lambda value, _: list(value),
    tuple,
    lambda value, _: " ".join(map(str, value)),
)
_TORSION = _Codec(
    _torsion_json,
    lambda obj: FactoredPower(obj["base"], obj["exponent"]),
    lambda value, expand: str(value.expand()) if expand else str(value),
)


class _Field(NamedTuple):
    column: str  # CSV column
    json_path: str  # "a.b" is key b of the JSON object a
    attr_path: str  # "a.b" is attribute b of FamilyRecord.a
    codec: Optional[_Codec] = None  # None: written as is (None is null / "")


# every record field once, in JSON key order, which is also the CSV order;
# JSON, CSV, the table view and JSON parsing are all driven from here
_FIELDS = (
    _Field("family", "family", "family_tag"),
    _Field("m", "m", "m"),
    _Field("k", "k", "k"),
    _Field("l_or_d", "l_or_d", "l_or_d"),
    _Field("weights", "base.weights", "base.weights", _WEIGHTS),
    _Field("degree", "base.degree", "base.degree"),
    _Field("link_dimension", "link_dimension", "link_dimension"),
    _Field("torsion", "torsion", "torsion", _TORSION),
    _Field("genus", "genus", "genus"),
    _Field("moduli_complex", "moduli.complex", "moduli.complex_dim"),
    _Field("moduli_real", "moduli.real", "moduli.real_dim"),
    _Field("h0_degree", "moduli.h0_degree", "moduli.h0_degree"),
    _Field("h0_weights_sum", "moduli.h0_weights_sum", "moduli.h0_weights_sum"),
    _Field("fano", "certificate.fano", "certificate.fano"),
    _Field("necessary_klt", "certificate.necessary_klt", "certificate.necessary_klt"),
    _Field("bp_applicable", "certificate.bp_applicable", "certificate.bp_applicable"),
    _Field("bp_sufficient", "certificate.bp_sufficient", "certificate.bp_sufficient"),
    _Field("gc_assumed", "certificate.gc_assumed", "certificate.gc_assumed"),
    _Field("left_value", "certificate.left_value", "certificate.left_value", _FRACTION),
    _Field("right_bound", "certificate.right_bound", "certificate.right_bound", _FRACTION),
    _Field("limiting_witness", "certificate.limiting_witness", "certificate.limiting_witness"),
    _Field("paper_min_k", "paper_min_k", "paper_min_k"),
    _Field("literal_min_k", "literal_min_k", "literal_min_k"),
)

# the table view's own layout: (header, width, alignment, cell), where a
# cell names a CSV column, "base" is the system as (w1,...,wm;d) and None
# is blank
_TABLE = (
    ("family", 16, "<", "family"),
    ("dim", 4, ">", "link_dimension"),
    ("m", 3, ">", "m"),
    ("d/l", 5, ">", "l_or_d"),
    ("k", 4, ">", "k"),
    ("", 2, "<", None),
    ("base", 18, "<", "base"),
    ("torsion", 12, "<", "torsion"),
    ("g", 3, ">", "genus"),
    ("mu", 5, ">", "moduli_complex"),
    ("real", 5, ">", "moduli_real"),
    ("", 2, "<", None),
    ("fano", 5, "<", "fano"),
    ("klt", 5, "<", "necessary_klt"),
    ("bp", 5, "<", "bp_applicable"),
    ("cert", 5, "<", "bp_sufficient"),
    ("k_paper", 8, ">", "paper_min_k"),
    ("k_lit", 6, ">", "literal_min_k"),
)


def _split(path: str) -> tuple[Optional[str], str]:
    group, _, key = path.rpartition(".")
    return group or None, key


CSV_HEADER = tuple(field.column for field in _FIELDS)
_values = attrgetter(*(field.attr_path for field in _FIELDS))
_JSON_OUT = tuple((*_split(f.json_path), f.codec and f.codec.to_json) for f in _FIELDS)
_JSON_IN = tuple(
    (*_split(f.json_path), *_split(f.attr_path), f.codec and f.codec.from_json) for f in _FIELDS
)
_TEXT_OUT = tuple(f.codec and f.codec.to_text for f in _FIELDS)
# record attributes assembled from several fields, with their types
_record_types = get_type_hints(FamilyRecord)
_PARTS = {
    group: _record_types[group]
    for group, _ in map(_split, (f.attr_path for f in _FIELDS))
    if group is not None
}


def record_to_json(rec: FamilyRecord, expand_torsion: bool = False) -> dict:
    obj: dict = {}
    for (group, key, encode), value in zip(_JSON_OUT, _values(rec)):
        if encode is not None:
            value = encode(value, expand_torsion)
        if group is None:
            obj[key] = value
        elif group in obj:
            obj[group][key] = value
        else:
            obj[group] = {key: value}
    return obj


def record_from_json(obj: dict) -> FamilyRecord:
    top: dict = {}
    parts: dict = {group: {} for group in _PARTS}
    for json_group, json_key, group, name, decode in _JSON_IN:
        value = (obj if json_group is None else obj[json_group])[json_key]
        if decode is not None:
            value = decode(value)
        (top if group is None else parts[group])[name] = value
    for group, cls in _PARTS.items():
        top[group] = cls(**parts[group])
    return FamilyRecord(**top)


def _csv_row(rec: FamilyRecord, expand_torsion: bool) -> list:
    # csv writes None as an empty cell
    return [
        value if encode is None else encode(value, expand_torsion)
        for encode, value in zip(_TEXT_OUT, _values(rec))
    ]


def _table_text(value: Any) -> str:
    return "-" if value is None else str(value)


def _catalog_meta(cfg: Optional[ScanConfig], expand_torsion: bool, count: int) -> dict:
    meta = {
        "schema": CATALOG_SCHEMA,
        "tool": {"name": "selinks", "version": __version__},
        "assumptions": [
            "genericity condition on perturbations assumed, not verified",
            "sufficiency verdicts follow the literal displayed inequality",
        ],
        "expand_torsion": expand_torsion,
        "count": count,
    }
    if cfg is not None:
        meta["bounds"] = {
            "weight_bound": cfg.weight_bound,
            "k_bound": cfg.k_bound,
            "m_range": list(cfg.m_range),
            "k_min": cfg.k_min,
        }
    return meta


def render_catalog(
    records: Sequence[FamilyRecord],
    fmt: str = "json",
    cfg: Optional[ScanConfig] = None,
    expand_torsion: bool = False,
) -> str:
    """Serialize records (already in canonical order) to table, csv or json."""
    if fmt == "json":
        payload = {
            "meta": _catalog_meta(cfg, expand_torsion, len(records)),
            "records": [record_to_json(r, expand_torsion) for r in records],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(_csv_row(rec, expand_torsion) for rec in records)
        return buf.getvalue()
    if fmt == "table":
        head = "".join(f"{header:{align}{width}}" for header, width, align, _ in _TABLE)
        lines = [head, "-" * len(head)]
        for rec in records:
            cells = dict(zip(CSV_HEADER, _csv_row(rec, expand_torsion)), base=rec.base)
            lines.append(
                "".join(
                    f"{'' if key is None else _table_text(cells[key]):{align}{width}}"
                    for _, width, align, key in _TABLE
                )
            )
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown catalog format {fmt!r}")


def parse_catalog_json(text: str) -> tuple[dict, list[FamilyRecord]]:
    """Inverse of the JSON rendering: (meta, records), exact.

    Malformed text, a catalog of another schema and a malformed record
    (named by its index) all raise UsageError.
    """
    try:
        payload = json.loads(text)
        meta, objs = payload["meta"], payload["records"]
        schema = meta["schema"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed catalog: {exc!r}") from None
    if schema != CATALOG_SCHEMA:
        raise UsageError(f"catalog schema is {schema!r}, expected {CATALOG_SCHEMA!r}")
    if not isinstance(objs, list):
        raise UsageError("malformed catalog: records is not a list")
    records = []
    for index, obj in enumerate(objs):
        try:
            records.append(record_from_json(obj))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"malformed catalog record {index}: {exc!r}") from None
    return meta, records


def render_euclidean_rows(rows: Sequence[EuclideanRow], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "meta": {"schema": "selinks.euclidean/1", "count": len(rows)},
            "rows": [
                {
                    "weights": list(row.system.weights),
                    "degree": row.system.degree,
                    "monomials": row.monomials,
                }
                for row in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("weights", "degree", "monomials"))
        for row in rows:
            writer.writerow(
                (" ".join(str(w) for w in row.system.weights), row.system.degree, row.monomials)
            )
        return buf.getvalue()
    if fmt == "table":
        lines = [f"{'weights':<12}{'d':>4}{'n':>4}"]
        for row in rows:
            lines.append(
                f"{','.join(str(w) for w in row.system.weights):<12}"
                f"{row.system.degree:>4}{row.monomials:>4}"
            )
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _render_scalar(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    width = max(len(key) for key in payload)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in payload.items()) + "\n"


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_invariants(inv: Invocation) -> str:
    ws = WeightSystem(inv.options["weights"], inv.options["degree"])
    if not quasi_smooth_generic(ws):
        raise IntegrityError(
            f"{ws} has no quasi-smooth member; invariants are not defined "
            "for this weight class"
        )
    payload = {
        "system": str(ws),
        "case": classify_case(ws).value,
        "quasi_smooth": True,
        "betti": milnor_orlik_betti(ws),
    }
    if ws.m == 3:
        payload["genus"] = genus(ws)
    return _render_scalar(payload, inv.output_format)


def _run_cover(inv: Invocation) -> str:
    k = inv.options["k"]
    base = WeightSystem(inv.options["weights"], inv.options["degree"])
    cov = branched_cover(k, base)
    payload = {
        "base": str(base),
        "k": k,
        "cover": str(cov.cover),
        "coprime": cov.coprime,
        "bp_exponents": (
            None if cov.bp_exponents is None else ",".join(map(str, cov.bp_exponents))
        ),
        "torsion_hypothesis": torsion_hypothesis(k, base),
    }
    if payload["torsion_hypothesis"]:
        payload["torsion"] = str(torsion_order(k, base))
        if not cov.coprime:
            _, reduced = normalize_cover(k, base)
            payload["normalized_base"] = str(reduced)
    return _render_scalar(payload, inv.output_format)


def _run_certify(inv: Invocation) -> str:
    result = bp_sufficient_ke(inv.options["exponents"])
    data = result.data
    payload = {
        "exponents": ",".join(map(str, data.exponents)),
        "reciprocal_sum": _frac_str(data.reciprocal_sum),
        "bound": _frac_str(result.bound),
        "cofactor_lcms": ",".join(map(str, data.cofactor_lcms)),
        "gcds": ",".join(map(str, data.gcds)),
        "limiting_witness": result.limiting_witness,
        "verdict": result.verdict,
    }
    return _render_scalar(payload, inv.output_format)


def _run_moduli(inv: Invocation) -> str:
    ws = WeightSystem(inv.options["weights"], inv.options["degree"])
    mc = moduli_count(ws)
    payload = {
        "system": str(ws),
        "h0_degree": mc.h0_degree,
        "h0_weights_sum": mc.h0_weights_sum,
        "complex_dim": mc.complex_dim,
        "real_dim": mc.real_dim,
    }
    return _render_scalar(payload, inv.output_format)


def _scan_config(options: dict) -> ScanConfig:
    k_range = options.get("k_range")
    k_min, k_bound = (2, options.get("k_bound", 60))
    if k_range is not None:
        k_min, k_bound = k_range
        if k_min < 2:
            raise UsageError(f"k range must start at 2 or above, got {k_min}")
    return ScanConfig(
        weight_bound=options.get("weight_bound", 60),
        k_bound=k_bound,
        m_range=options.get("m", (3, 8)),
        k_min=k_min,
    )


def _run_scan(inv: Invocation) -> str:
    cfg = _scan_config(inv.options)
    family = inv.options["family"]
    if family == "euclidean":
        rows = scan_euclidean_classification(cfg)
        return render_euclidean_rows(rows, inv.output_format)
    generator = {
        "theorem2": generate_theorem2_family,
        "fermat-cy": scan_fermat_cy,
        "hyperbolic": scan_hyperbolic,
        "mixed-canonical": generate_mixed_canonical,
    }[family]
    records = generator(cfg)
    return render_catalog(
        records, inv.output_format, cfg, inv.options.get("expand_torsion", False)
    )


def _run_ingest(inv: Invocation) -> str:
    with open(inv.options["file"], "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    cfg = _scan_config(inv.options)
    result: IngestResult = ingest_weight_list(lines, cfg)
    for message in result.errors:
        print(f"ingest: {message}", file=sys.stderr)
    return render_catalog(
        result.records, inv.output_format, cfg, inv.options.get("expand_torsion", False)
    )


_HANDLERS = {
    "invariants": _run_invariants,
    "cover": _run_cover,
    "certify": _run_certify,
    "moduli": _run_moduli,
    "scan": _run_scan,
    "ingest": _run_ingest,
}


def run(invocation: Invocation) -> int:
    """Dispatch a validated invocation; raises on failure (see `main`)."""
    text = _HANDLERS[invocation.subcommand](invocation)
    _write_output(text, invocation.output_path)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point mapping the error taxonomy onto exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(parse_invocation(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ResourceBudgetError as exc:
        print(f"resource budget error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
