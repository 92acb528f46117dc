"""Command line driver and catalog writers.

The only module with side effects.  Subcommands map onto the library:
``invariants``, ``cover``, ``certify``, ``moduli``, ``scan`` and
``ingest``.  Exit codes distinguish failure classes: 0 success, 1 usage
error, 2 integrity error (an exact invariant came out impossible), 3 I/O
error, 4 resource budget exceeded.  Catalog output is deterministic:
byte-identical across runs, and the JSON form round-trips losslessly
through ``parse_catalog_json``, whose reader is ``selinks.reader``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from operator import attrgetter, methodcaller
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import __version__
from .arith import check_digits
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .links import WeightSystem, _quasi_smooth, branched_cover, classify_case, torsion_hypothesis
from .survey import (
    EuclideanRow,
    FamilyRecord,
    ScanConfig,
    generate_mixed_canonical,
    generate_theorem2_family,
    ingest_weight_list,
    scan_euclidean_classification,
    scan_fermat_cy,
    scan_hyperbolic,
)

# the other layers, the reader, csv and fractions are imported where they run (README)
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


class _Codec(NamedTuple):
    """How a field value is written to JSON and to CSV.  A chain is
    functions applied in turn, so that columns go through `map`."""

    # (indent, expand_torsion): the value's JSON text as a %-format, laid out
    # as json.dumps(indent=2) lays it out when its key sits at `indent`, and
    # the chain that makes each of its arguments from the value
    json_form: Callable[[str, bool], tuple[str, tuple]]
    to_text: Callable[[bool], tuple]  # expand_torsion: the chain that makes the CSV cell


def _scalar(*chain: Callable) -> _Codec:
    # written to JSON through `chain`, to CSV as it is (None as an empty cell)
    return _Codec(lambda _, __: ("%s", (chain,)), lambda _: ())


# int.__repr__ writes a bool as 1 and refuses a float or a str, so a flag
# or a float stored for a count never writes its own text back; a flag is
# written by its truth value, whatever it holds
_INT = _scalar(int.__repr__)
_OPTIONAL_INT = _scalar(lambda value: "null" if value is None else int.__repr__(value))
_BOOL = _scalar(bool, ("false", "true").__getitem__)
# escaped as json.dumps escapes strings by default (ensure_ascii)
_STR = _scalar(encode_basestring_ascii)


def _weights_form(indent: str, _) -> tuple[str, tuple]:
    # a WeightSystem has at least two weights, so the list is never empty
    inner = indent + "  "
    return f"[\n{inner}%s\n{indent}]", ((lambda value: f",\n{inner}".join(map(str, value)),),)


# %d formats only the ints of a FactoredPower, which refuses any other type,
# and a Fraction's numerator and denominator, which are ints
def _torsion_form(indent: str, expand: bool) -> tuple[str, tuple]:
    inner = indent + "  "
    decimal = f',\n{inner}"decimal": "%d"' if expand else ""
    args = ((attrgetter("base"),), (attrgetter("exponent"),), (methodcaller("expand"),))
    return f'{{\n{inner}"base": %d,\n{inner}"exponent": %d{decimal}\n{indent}}}', args[: 2 + expand]


def _fraction_form(indent: str, _) -> tuple[str, tuple]:
    inner = indent + "  "
    args = ((attrgetter("numerator"),), (attrgetter("denominator"),))
    return f'{{\n{inner}"num": %d,\n{inner}"den": %d\n{indent}}}', args


_WEIGHTS = _Codec(_weights_form, lambda _: (lambda value: " ".join(map(str, value)),))
_TORSION = _Codec(
    _torsion_form, lambda expand: (methodcaller("expand"), str) if expand else (str,)
)
_FRACTION = _Codec(
    _fraction_form, lambda _: (lambda value: f"{value.numerator}/{value.denominator}",)
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
# Only k, the torsion order k^b and the certificate change with k.  Every
# other field reads only the stored values of _template_key, so the JSON and
# table writers write it once per key (`_append_text`), not once per cover.
_PER_COVER = {
    f.column for f in _FIELDS if f.attr_path.partition(".")[0] in ("k", "torsion", "certificate")
}
_template_key = attrgetter(
    "family_tag", "base", "torsion.exponent", "moduli", "paper_min_k", "literal_min_k"
)


def _json_fields(expand_torsion: bool) -> tuple[list, str]:
    """What json.dumps(indent=2) writes for each field of a record in the
    catalog's "records" list, from _FIELDS, as `_append_text` takes it, and
    the text that closes the record.

    The text before a value holds the comma, newline and indentation, a
    group's closing or opening and the quoted key.  The first field's text
    starts with the comma that separates a record from the one before it.
    """
    fields, group_open = [], None
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
        fragment, chains = field.codec.json_form(indent, expand_torsion)
        chains = [(attrgetter(field.attr_path), *fns) for fns in chains]
        fields.append((text, fragment, chains, field.column in _PER_COVER))
    return fields, "\n    }" if group_open is None else "\n      }\n    }"


def _columns(records, chains) -> list:
    """One iterator per chain over `records`: each record passed through the
    chain's functions in turn, lazily."""
    columns = []
    for fns in chains:
        column = records
        for fn in fns:
            column = map(fn, column)
        columns.append(column)
    return columns


def _table_text(value: Any) -> str:
    return "-" if value is None else str(value)


def _append_text(parts: list, records, fields, closing: str) -> None:
    """Append to `parts` the text of each record.

    `fields` gives, per field, the text before its value, its %-format, the
    chains that make its arguments from the record and whether it is
    per-cover; `closing` ends a record.  The fields are cut into runs,
    constant and per-cover by turns, each one %-format, with the text
    between the two kinds in the constant run.  A per-cover run is filled
    for every record from columns (`_columns`).  The constant runs are
    filled once per _template_key and shared by the records with that key.
    """
    runs = [["", []]]  # constant at even indices
    for text, fragment, chains, varies in (*fields, (closing, "", (), False)):
        if not varies and len(runs) % 2 == 0:
            runs.append(["", []])
        runs[-1][0] += text.replace("%", "%%")
        if varies and len(runs) % 2:
            runs.append(["", []])
        runs[-1][0] += fragment
        runs[-1][1] += chains
    covers = (map(fmt.__mod__, zip(*_columns(records, chains))) for fmt, chains in runs[1::2])
    templates: dict = {}
    record = [None] * len(runs)  # one record's runs, refilled in place
    for rec, key, texts in zip(records, map(_template_key, records), zip(*covers)):
        template = templates.get(key)
        if template is None:
            template = [fmt % tuple(map(next, _columns([rec], c))) for fmt, c in runs[::2]]
            templates[key] = template
        record[::2], record[1::2] = template, texts
        parts += record


def _catalog_meta(cfg: ScanConfig, expand_torsion: bool, count: int) -> dict:
    return {
        "schema": CATALOG_SCHEMA,
        "tool": {"name": "selinks", "version": __version__},
        "assumptions": [
            "genericity condition on perturbations assumed, not verified",
            "sufficiency verdicts follow the literal displayed inequality",
        ],
        "expand_torsion": expand_torsion,
        "count": count,
        "bounds": cfg._asdict(),
    }


def _csv_text(header: Sequence[str], rows) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_catalog(
    records: Sequence[FamilyRecord],
    fmt: str,
    cfg: ScanConfig,
    expand_torsion: bool = False,
) -> str:
    """Serialize records (already in canonical order) to table, csv or json."""
    if fmt == "json":
        # the bytes of json.dumps({"meta": ..., "records": [...]}, indent=2),
        # written field by field from _FIELDS (_json_fields)
        head = json.dumps(
            {"meta": _catalog_meta(cfg, expand_torsion, len(records)), "records": []}, indent=2
        )
        if not records:
            return head + "\n"
        parts = [head[: -len("]\n}")]]
        _append_text(parts, records, *_json_fields(expand_torsion))
        parts[1] = parts[1][1:]  # no comma before the first record
        parts.append("\n  ]\n}\n")
        return "".join(parts)
    # the chain that makes each CSV cell from the record
    cells = {f.column: (attrgetter(f.attr_path), *f.codec.to_text(expand_torsion)) for f in _FIELDS}
    if fmt == "csv":
        return _csv_text(CSV_HEADER, zip(*_columns(records, map(cells.get, CSV_HEADER))))
    if fmt == "table":
        cells["base"] = (attrgetter("base"),)
        # a space between cells keeps a cell wider than its column apart
        # from the next one
        fields = [
            (" " if index else "", f"%{'-' if align == '<' else ''}{width}s")
            + ([(*cells[key], _table_text)], key in _PER_COVER)
            for index, (_, width, align, key) in enumerate(_TABLE)
        ]
        head = " ".join(f"{header:{align}{width}}" for header, width, align, _ in _TABLE)
        parts = [head, "\n", "-" * len(head), "\n"]
        _append_text(parts, records, fields, "\n")
        return "".join(parts)
    raise UsageError(f"unknown catalog format {fmt!r}")


def parse_catalog_json(text: str) -> tuple[dict, list[FamilyRecord]]:
    """Inverse of the JSON rendering: (meta, records), exact.

    The records are built from their stored fields and sorted as every
    generator sorts them (`FamilyRecord.sort_key`).  The text must then be
    what `render_catalog` writes for them under `meta.bounds` and
    `meta.expand_torsion`, or json.dumps(indent=2) of the JSON it holds must
    be; otherwise UsageError names the first difference.  The values the
    writer copies are checked too: the bounds must make a ScanConfig, and
    each record's k must meet the torsion hypothesis and the bounds.  A
    decimal past the digit budget raises ResourceBudgetError.
    """
    from .reader import parse_catalog_json
    return parse_catalog_json(text)


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
        return _csv_text(
            ("weights", "degree", "monomials"),
            (
                (" ".join(str(w) for w in row.system.weights), row.system.degree, row.monomials)
                for row in rows
            ),
        )
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


def _written(key: str, value: Any) -> Any:
    """A scalar payload value as it is written: an int as itself, a fraction
    as n/d, a plain tuple joined by commas, a system or a power by its str.
    Each integer in it is first checked against the int-to-str limit
    (`check_digits`), so a value too long to write is a budget error."""
    from fractions import Fraction
    if type(value) is int:
        return check_digits(value, key)
    if isinstance(value, Fraction):
        return f"{_written(key, value.numerator)}/{_written(key, value.denominator)}"
    if isinstance(value, tuple):
        parts = [_written(key, part) for part in value]
        return ",".join(map(str, parts)) if type(value) is tuple else str(value)
    return value


def _render_scalar(payload: dict, fmt: str) -> str:
    payload = {key: _written(key, value) for key, value in payload.items()}
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    width = max(len(key) for key in payload)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in payload.items()) + "\n"


# the most characters written at once: the text layer encodes what it is
# given in one piece, so a whole catalog would cost a second full copy
_WRITE_SLICE = 1 << 16


def _write_output(text: str, path: Optional[str]) -> None:
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])


def _run_invariants(ns: argparse.Namespace) -> str:
    from .topology import genus, milnor_orlik_betti
    ws = _quasi_smooth(WeightSystem(ns.weights, ns.degree))
    payload = {
        "system": ws,
        "case": classify_case(ws).value,
        "quasi_smooth": True,
        "betti": milnor_orlik_betti(ws),
    }
    if ws.m == 3:
        payload["genus"] = genus(ws)
    return _render_scalar(payload, ns.format)


def _run_cover(ns: argparse.Namespace) -> str:
    from .topology import torsion_order
    # branched_cover refuses k < 2, a usage error, before the
    # quasi-smoothness gate gives its integrity error
    cov = branched_cover(ns.k, WeightSystem(ns.weights, ns.degree))
    _quasi_smooth(cov.base)
    payload = {**cov._asdict(), "torsion_hypothesis": torsion_hypothesis(cov.k, cov.base)}
    if payload["torsion_hypothesis"]:
        payload["torsion"] = torsion_order(cov.k, cov.base)
    return _render_scalar(payload, ns.format)


def _run_certify(ns: argparse.Namespace) -> str:
    from .ke_cert import bp_sufficient_ke
    return _render_scalar(bp_sufficient_ke(ns.exponents)._asdict(), ns.format)


def _run_moduli(ns: argparse.Namespace) -> str:
    from .moduli import moduli_count
    ws = _quasi_smooth(WeightSystem(ns.weights, ns.degree))
    mc = moduli_count(ws)
    payload = {"system": ws, **mc._asdict(), "complex_dim": mc.complex_dim, "real_dim": mc.real_dim}
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


# the most bytes an ingest file may hold, refused before any row runs (README)
INGEST_BYTE_LIMIT = 5 * 10**5
# the most row diagnostics written at once
_DIAGNOSTIC_SLICE = 1 << 10


def _run_ingest(ns: argparse.Namespace) -> str:
    k_min, k_bound = ns.k_range
    cfg = ScanConfig(k_bound=k_bound, k_min=k_min)
    # lines are split as bytes, so a line that is not UTF-8 costs only itself
    # a row diagnostic; splitlines ends a line at \n, \r\n or \r, as text mode does
    with open(ns.file, "rb") as fh:
        data = fh.read(INGEST_BYTE_LIMIT + 1)  # stat gives /dev/zero size 0
    if len(data) > INGEST_BYTE_LIMIT:
        raise ResourceBudgetError(f"{ns.file}: more than the limit of {INGEST_BYTE_LIMIT} bytes")
    result = ingest_weight_list(data.splitlines(), cfg, expand_torsion=ns.expand_torsion)
    # a write per slice of rows: a write per row costs a system call each,
    # and one write of every row a second copy of the diagnostics
    for start in range(0, len(result.errors), _DIAGNOSTIC_SLICE):
        rows = result.errors[start : start + _DIAGNOSTIC_SLICE]
        sys.stderr.write("".join(f"ingest: {message}\n" for message in rows))
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
