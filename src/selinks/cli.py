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
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import __version__
from .arith import FactoredPower
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .ke_cert import KeCertificate, bp_sufficient_ke
from .links import (
    WeightSystem,
    branched_cover,
    classify_case,
    quasi_smooth_generic,
    torsion_hypothesis,
)
from .moduli import ModuliCount, moduli_count
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

__all__ = ["render_catalog", "parse_catalog_json", "main"]

CATALOG_SCHEMA = "selinks.catalog/1"

# the scan and ingest defaults are the ScanConfig field defaults
_SCAN_DEFAULTS = ScanConfig()


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


def _build_parser() -> _Parser:
    # each subcommand sets `handler`, which turns the namespace into the
    # output; the library types it builds refuse bad values (UsageError)
    parser = _Parser(prog="selinks", description=__doc__)
    parser.add_argument("--version", action="version", version=f"selinks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p: _Parser, formats=("table", "json")) -> None:
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    def add_system_flags(p: _Parser) -> None:
        p.add_argument("--weights", type=_int_list, required=True)
        p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("invariants", help="invariants of a base link")
    p.set_defaults(handler=_run_invariants)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("cover", help="branched-cover data")
    p.set_defaults(handler=_run_cover)
    p.add_argument("--k", type=int, required=True)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("certify", help="sufficiency test on exponents")
    p.set_defaults(handler=_run_certify)
    p.add_argument("--exponents", type=_int_list, required=True)
    add_output_flags(p)

    p = sub.add_parser("moduli", help="parameter count of a cover system")
    p.set_defaults(handler=_run_moduli)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("scan", help="generate a family catalog")
    p.set_defaults(handler=_run_scan)
    p.add_argument("family", choices=_SCANS)
    p.add_argument("--weight-bound", type=int, default=_SCAN_DEFAULTS.weight_bound)
    p.add_argument("--k-bound", type=int, default=_SCAN_DEFAULTS.k_bound)
    p.add_argument("--m", type=_int_range, default=_SCAN_DEFAULTS.m_range, metavar="A..B")
    p.add_argument("--expand-torsion", action="store_true")
    add_output_flags(p, formats=("table", "json", "csv"))

    p = sub.add_parser("ingest", help="certify a user-supplied weight list")
    p.set_defaults(handler=_run_ingest)
    p.add_argument("file")
    p.add_argument(
        "--k-range",
        type=_int_range,
        default=(_SCAN_DEFAULTS.k_min, _SCAN_DEFAULTS.k_bound),
        metavar="A..B",
    )
    p.add_argument("--expand-torsion", action="store_true")
    add_output_flags(p, formats=("table", "json", "csv"))

    return parser


# ---------------------------------------------------------------------------
# serialization


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class _Codec(NamedTuple):
    """How a field value is written to JSON and to CSV, and read from JSON."""

    # (value, expand_torsion, indent): the value's JSON text, laid out as
    # json.dumps(indent=2) lays it out when its key sits at `indent`
    json_text: Callable[[Any, bool, str], str]
    from_json: Callable[[Any], Any]  # TypeError when the value has the wrong type
    to_text: Callable[[Any, bool], Any]  # (value, expand_torsion): the CSV cell


def _scalar(expected: str, types: tuple[type, ...], text: Callable[[Any], str]) -> _Codec:
    """The codec of a value written as it is, to JSON by `text` and to CSV
    by the csv module (None as an empty cell), and read back only when its
    type is exactly one of `types`: bool is a subclass of int, but a flag
    is not a count."""

    def from_json(value: Any) -> Any:
        if type(value) not in types:
            raise TypeError(f"expected {expected}")
        return value

    return _Codec(lambda value, _, __: text(value), from_json, lambda value, _: value)


_INT = _scalar("int", (int,), int.__repr__)
_OPTIONAL_INT = _scalar(
    "int or null",
    (int, type(None)),
    lambda value: "null" if value is None else int.__repr__(value),
)
_BOOL = _scalar("bool", (bool,), lambda value: "true" if value else "false")
# escaped as json.dumps escapes strings by default (ensure_ascii)
_STR = _scalar("str", (str,), encode_basestring_ascii)


def _ints(values) -> tuple[int, ...]:
    """The values, refused unless each is an int (not a bool, float or str)."""
    values = tuple(values)
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
    return values


def _weights_text(value: tuple[int, ...], _, indent: str) -> str:
    # a WeightSystem has at least two weights, so the list is never empty
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(str, value)) + f"\n{indent}]"


def _torsion_text(value: FactoredPower, expand: bool, indent: str) -> str:
    inner = indent + "  "
    decimal = f',\n{inner}"decimal": "{value.expand()}"' if expand else ""
    return (
        f'{{\n{inner}"base": {value.base},\n{inner}"exponent": {value.exponent}'
        f"{decimal}\n{indent}}}"
    )


def _fraction_text(value: Fraction, _, indent: str) -> str:
    inner = indent + "  "
    return f'{{\n{inner}"num": {value.numerator},\n{inner}"den": {value.denominator}\n{indent}}}'


_WEIGHTS = _Codec(_weights_text, _ints, lambda value, _: " ".join(map(str, value)))
_TORSION = _Codec(
    _torsion_text,
    lambda obj: FactoredPower(*_ints((obj["base"], obj["exponent"]))),
    lambda value, expand: str(value.expand()) if expand else str(value),
)
_FRACTION = _Codec(
    _fraction_text,
    lambda obj: Fraction(*_ints((obj["num"], obj["den"]))),
    lambda value, _: _frac_str(value),
)


class _Field(NamedTuple):
    column: str  # CSV column
    json_path: str  # "a.b" is key b of the JSON object a
    attr_path: str  # "a.b" is attribute b of FamilyRecord.a
    codec: _Codec


# every record field once, in JSON key order, which is also the CSV order;
# JSON, CSV, the table view and JSON parsing are all driven from here
_FIELDS = (
    _Field("family", "family", "family_tag", _STR),
    _Field("m", "m", "m", _INT),
    _Field("k", "k", "k", _INT),
    _Field("l_or_d", "l_or_d", "l_or_d", _INT),
    _Field("weights", "base.weights", "base.weights", _WEIGHTS),
    _Field("degree", "base.degree", "base.degree", _INT),
    _Field("link_dimension", "link_dimension", "link_dimension", _INT),
    _Field("torsion", "torsion", "torsion", _TORSION),
    _Field("genus", "genus", "genus", _OPTIONAL_INT),
    _Field("moduli_complex", "moduli.complex", "moduli.complex_dim", _INT),
    _Field("moduli_real", "moduli.real", "moduli.real_dim", _INT),
    _Field("h0_degree", "moduli.h0_degree", "moduli.h0_degree", _INT),
    _Field("h0_weights_sum", "moduli.h0_weights_sum", "moduli.h0_weights_sum", _INT),
    _Field("fano", "certificate.fano", "certificate.fano", _BOOL),
    _Field("necessary_klt", "certificate.necessary_klt", "certificate.necessary_klt", _BOOL),
    _Field("bp_applicable", "certificate.bp_applicable", "certificate.bp_applicable", _BOOL),
    _Field("bp_sufficient", "certificate.bp_sufficient", "certificate.bp_sufficient", _BOOL),
    _Field("gc_assumed", "certificate.gc_assumed", "certificate.gc_assumed", _BOOL),
    _Field("left_value", "certificate.left_value", "certificate.left_value", _FRACTION),
    _Field("right_bound", "certificate.right_bound", "certificate.right_bound", _FRACTION),
    _Field(
        "limiting_witness", "certificate.limiting_witness", "certificate.limiting_witness", _STR
    ),
    _Field("paper_min_k", "paper_min_k", "paper_min_k", _OPTIONAL_INT),
    _Field("literal_min_k", "literal_min_k", "literal_min_k", _OPTIONAL_INT),
)
# the class of each FamilyRecord attribute assembled from several fields
_PARTS = {"base": WeightSystem, "moduli": ModuliCount, "certificate": KeCertificate}

# the table view's own layout: (header, width, alignment, cell), where a
# cell names a CSV column and "base" is the system as (w1,...,wm;d)
_TABLE = (
    ("family", 16, "<", "family"),
    ("dim", 4, ">", "link_dimension"),
    ("m", 3, ">", "m"),
    ("d/l", 5, ">", "l_or_d"),
    ("k", 4, ">", "k"),
    ("base", 18, "<", "base"),
    ("torsion", 12, "<", "torsion"),
    ("g", 3, ">", "genus"),
    ("mu", 5, ">", "moduli_complex"),
    ("real", 5, ">", "moduli_real"),
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
_JSON_IN = tuple((*_split(f.json_path), *_split(f.attr_path), f.codec.from_json) for f in _FIELDS)
_TEXT_OUT = tuple(f.codec.to_text for f in _FIELDS)


def _json_layout() -> tuple[tuple, str]:
    """What json.dumps(indent=2) writes around each field of a record in the
    catalog's "records" list, from _FIELDS.

    Per field: the text before its value (the comma, newline and
    indentation, a group's closing or opening, the quoted key), its codec's
    `json_text` and the indentation of its key.  Then the text that closes
    the record.  The first field's text starts with the comma that
    separates a record from the one before it.
    """
    layout, group_open = [], None
    for index, field in enumerate(_FIELDS):
        group, key = _split(field.json_path)
        text = ",\n    {" if index == 0 else ","
        if group != group_open:
            if group_open is not None:
                text = "\n      }" + text
            if group is not None:
                text += f"\n      {encode_basestring_ascii(group)}: {{"
            group_open = group
        indent = "      " if group is None else "        "
        text += f"\n{indent}{encode_basestring_ascii(key)}: "
        layout.append((text, field.codec.json_text, indent))
    closing = "\n    }" if group_open is None else "\n      }\n    }"
    return tuple(layout), closing


_JSON_FIELDS, _JSON_RECORD_CLOSE = _json_layout()


def record_from_json(obj: dict) -> FamilyRecord:
    top: dict = {}
    parts: dict = {group: {} for group in _PARTS}
    for json_group, json_key, group, name, decode in _JSON_IN:
        given = (obj if json_group is None else obj[json_group])[json_key]
        try:
            value = decode(given)
        except TypeError as exc:
            raise TypeError(f"{json_key} is {given!r}, {exc}") from None
        (top if group is None else parts[group])[name] = value
    for group, cls in _PARTS.items():
        top[group] = cls(**parts[group])
    return FamilyRecord(**top)


def _check_consistent(obj: dict, rec: FamilyRecord) -> None:
    """Refuse (ValueError) a parsed record whose fields disagree.

    The base must be given reduced with sorted weights, as catalogs write
    it, and the fields derived from it and from k must match it: k coprime
    to d (the torsion hypothesis), and a genus exactly when m = 3.  Nothing
    is recomputed, so the check costs no more than the parse.
    """
    base = rec.base
    given = (tuple(obj["base"]["weights"]), obj["base"]["degree"])
    if given != (tuple(sorted(base.weights)), base.degree):
        raise ValueError(f"base {given} is not reduced with sorted weights, {base} is")
    for name, value, expected in (
        ("l_or_d", rec.l_or_d, base.degree),
        ("m", rec.m, base.m),
        ("link_dimension", rec.link_dimension, 2 * base.m - 1),
        ("torsion base", rec.torsion.base, rec.k),
    ):
        if value != expected:
            raise ValueError(f"{name} is {value}, expected {expected} from {base} and k = {rec.k}")
    if not torsion_hypothesis(rec.k, base):
        raise ValueError(f"k = {rec.k} is not coprime to the degree of {base}")
    if (rec.genus is None) == (base.m == 3):
        expected = "an integer" if base.m == 3 else "null"
        raise ValueError(f"genus is {rec.genus}, expected {expected} for m = {base.m}")


def _csv_row(rec: FamilyRecord, expand_torsion: bool) -> list:
    return [encode(value, expand_torsion) for encode, value in zip(_TEXT_OUT, _values(rec))]


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
        meta["bounds"] = cfg._asdict()
    return meta


def render_catalog(
    records: Sequence[FamilyRecord],
    fmt: str = "json",
    cfg: Optional[ScanConfig] = None,
    expand_torsion: bool = False,
) -> str:
    """Serialize records (already in canonical order) to table, csv or json."""
    if fmt == "json":
        # the bytes of json.dumps({"meta": ..., "records": [...]}, indent=2),
        # written field by field from _FIELDS (_json_layout)
        head = json.dumps(
            {"meta": _catalog_meta(cfg, expand_torsion, len(records)), "records": []}, indent=2
        )
        if not records:
            return head + "\n"
        parts = [head[: -len("]\n}")]]
        append = parts.append
        for rec in records:
            for (text, encode, indent), value in zip(_JSON_FIELDS, _values(rec)):
                append(text)
                append(encode(value, expand_torsion, indent))
            append(_JSON_RECORD_CLOSE)
        parts[1] = parts[1][1:]  # no comma before the first record
        parts.append("\n  ]\n}\n")
        return "".join(parts)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(_csv_row(rec, expand_torsion) for rec in records)
        return buf.getvalue()
    if fmt == "table":
        # a space between cells keeps a cell wider than its column apart
        # from the next one
        head = " ".join(f"{header:{align}{width}}" for header, width, align, _ in _TABLE)
        lines = [head, "-" * len(head)]
        for rec in records:
            cells = dict(zip(CSV_HEADER, _csv_row(rec, expand_torsion)), base=rec.base)
            lines.append(
                " ".join(
                    f"{_table_text(cells[key]):{align}{width}}"
                    for _, width, align, key in _TABLE
                )
            )
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown catalog format {fmt!r}")


def parse_catalog_json(text: str) -> tuple[dict, list[FamilyRecord]]:
    """Inverse of the JSON rendering: (meta, records), exact.

    Malformed text, a catalog of another schema and a malformed or
    inconsistent record (named by its index) all raise UsageError.
    """
    try:
        payload = json.loads(text)
        meta, objs = payload["meta"], payload["records"]
        schema = meta["schema"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"malformed catalog: {exc!r}") from None
    if schema != CATALOG_SCHEMA:
        raise UsageError(f"catalog schema is {schema!r}, expected {CATALOG_SCHEMA!r}")
    if not isinstance(objs, list):
        raise UsageError("malformed catalog: records is not a list")
    records = []
    for index, obj in enumerate(objs):
        try:
            rec = record_from_json(obj)
            _check_consistent(obj, rec)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"malformed catalog record {index}: {exc!r}") from None
        records.append(rec)
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


def _quasi_smooth(ws: WeightSystem) -> WeightSystem:
    """`ws`; IntegrityError when no member is quasi-smooth."""
    if not quasi_smooth_generic(ws):
        raise IntegrityError(
            f"{ws} has no quasi-smooth member; invariants are not defined "
            "for this weight class"
        )
    return ws


def _run_invariants(ns: argparse.Namespace) -> str:
    ws = _quasi_smooth(WeightSystem(ns.weights, ns.degree))
    payload = {
        "system": str(ws),
        "case": classify_case(ws).value,
        "quasi_smooth": True,
        "betti": milnor_orlik_betti(ws),
    }
    if ws.m == 3:
        payload["genus"] = genus(ws)
    return _render_scalar(payload, ns.format)


def _run_cover(ns: argparse.Namespace) -> str:
    # branched_cover refuses k < 2, a usage error, before the
    # quasi-smoothness gate gives its integrity error
    k = ns.k
    cov = branched_cover(k, WeightSystem(ns.weights, ns.degree))
    base = _quasi_smooth(cov.base)
    payload = {
        "base": str(base),
        "k": k,
        "cover": str(cov.cover),
        "bp_exponents": (
            None if cov.bp_exponents is None else ",".join(map(str, cov.bp_exponents))
        ),
        "torsion_hypothesis": torsion_hypothesis(k, base),
    }
    if payload["torsion_hypothesis"]:
        payload["torsion"] = str(torsion_order(k, base))
    return _render_scalar(payload, ns.format)


def _run_certify(ns: argparse.Namespace) -> str:
    result = bp_sufficient_ke(ns.exponents)
    payload = {
        "exponents": ",".join(map(str, result.exponents)),
        "reciprocal_sum": _frac_str(result.reciprocal_sum),
        "bound": _frac_str(result.bound),
        "cofactor_lcms": ",".join(map(str, result.cofactor_lcms)),
        "gcds": ",".join(map(str, result.gcds)),
        "limiting_witness": result.limiting_witness,
        "verdict": result.verdict,
    }
    return _render_scalar(payload, ns.format)


def _run_moduli(ns: argparse.Namespace) -> str:
    ws = _quasi_smooth(WeightSystem(ns.weights, ns.degree))
    mc = moduli_count(ws)
    payload = {
        "system": str(ws),
        "h0_degree": mc.h0_degree,
        "h0_weights_sum": mc.h0_weights_sum,
        "complex_dim": mc.complex_dim,
        "real_dim": mc.real_dim,
    }
    return _render_scalar(payload, ns.format)


# scan family -> its catalog generator, called through this module's name for
# it, so that a wrapper bound over the name (perfbench/trace.py) sees the call
_SCANS = {
    "euclidean": lambda cfg: scan_euclidean_classification(cfg),
    "theorem2": lambda cfg: generate_theorem2_family(cfg),
    "fermat-cy": lambda cfg: scan_fermat_cy(cfg),
    "hyperbolic": lambda cfg: scan_hyperbolic(cfg),
    "mixed-canonical": lambda cfg: generate_mixed_canonical(cfg),
}


def _run_scan(ns: argparse.Namespace) -> str:
    cfg = ScanConfig(ns.weight_bound, ns.k_bound, ns.m)
    result = _SCANS[ns.family](cfg)
    if ns.family == "euclidean":
        return render_euclidean_rows(result, ns.format)
    return render_catalog(result, ns.format, cfg, ns.expand_torsion)


def _run_ingest(ns: argparse.Namespace) -> str:
    k_min, k_bound = ns.k_range
    cfg = ScanConfig(k_bound=k_bound, k_min=k_min)
    # lines are split as bytes, so a line that is not UTF-8 costs only itself
    # a row diagnostic; splitlines ends a line at \n, \r\n or \r, as text mode does
    with open(ns.file, "rb") as fh:
        lines = fh.read().splitlines()
    result: IngestResult = ingest_weight_list(lines, cfg, expand_torsion=ns.expand_torsion)
    for message in result.errors:
        print(f"ingest: {message}", file=sys.stderr)
    return render_catalog(result.records, ns.format, cfg, ns.expand_torsion)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point mapping the error taxonomy onto exit codes;
    argv defaults to sys.argv[1:]."""
    try:
        ns = _build_parser().parse_args(argv)
        _write_output(ns.handler(ns), ns.out)
        return 0
    except SystemExit as exc:
        # argparse ends --help and --version this way, after printing them
        return exc.code
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
