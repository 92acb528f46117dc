"""Command line driver.

The only module with side effects.  Subcommands map onto the library:
``invariants``, ``cover``, ``certify``, ``moduli``, ``scan`` and
``ingest``.  Exit codes distinguish failure classes: 0 success, 1 usage
error, 2 integrity error (an exact invariant came out impossible), 3 I/O
error, 4 resource budget exceeded.  Catalog output is deterministic:
byte-identical across runs.  Its writer is ``selinks.writer``, and the
JSON form round-trips losslessly through ``parse_catalog_json``, whose
reader is ``selinks.reader``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext, suppress
from typing import Optional, Sequence

from . import __version__
from .errors import IntegrityError, ResourceBudgetError, UsageError
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

# the layers, the single-system commands, the writer, the reader, csv, fractions
# and json load where they run (README)
__all__ = ["render_catalog", "parse_catalog_json", "main"]

# the scan and ingest defaults are the ScanConfig field defaults
_SCAN_DEFAULTS = ScanConfig()


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on errors; route them through the
    # usage-error channel (exit 1) instead
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)

    # argparse drops an OSError from writing --help or --version, which then
    # exit 0 having written nothing; let it reach main, which returns 3
    def _print_message(self, message: str, file=None) -> None:
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


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
    p.set_defaults(handler=_run_single)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("cover", help="branched-cover data")
    p.set_defaults(handler=_run_single)
    p.add_argument("--k", type=int, required=True)
    add_system_flags(p)
    add_output_flags(p)

    p = sub.add_parser("certify", help="sufficiency test on exponents")
    p.set_defaults(handler=_run_single)
    p.add_argument("--exponents", type=_int_list, required=True)
    add_output_flags(p)

    p = sub.add_parser("moduli", help="parameter count of a cover system")
    p.set_defaults(handler=_run_single)
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


def render_catalog(
    records: Sequence[FamilyRecord],
    fmt: str,
    cfg: ScanConfig,
    expand_torsion: bool = False,
) -> str:
    """Serialize records (already in canonical order) to table, csv or json."""
    from .writer import render_catalog
    return render_catalog(records, fmt, cfg, expand_torsion)


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
        import json
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
        from .csvtext import csv_text
        return csv_text(
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


# the most characters written at once: the text layer encodes what it is
# given in one piece, so a whole catalog would cost a second full copy
_WRITE_SLICE = 1 << 16


def _write_output(text: str, path: Optional[str]) -> None:
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])


def _run_single(ns: argparse.Namespace) -> str:
    # the invariants, cover, certify and moduli handlers live in a module only
    # they load; imported by name, since `from . import` would load every layer
    from importlib import import_module
    return getattr(import_module(f"{__package__}.single"), f"_run_{ns.command}")(ns)


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
    with open(ns.file, "rb") as fh:
        data = fh.read(INGEST_BYTE_LIMIT + 1)  # stat gives /dev/zero size 0
    if len(data) > INGEST_BYTE_LIMIT:
        raise ResourceBudgetError(f"{ns.file}: more than the limit of {INGEST_BYTE_LIMIT} bytes")
    # diagnostics are written a slice at a time as rows fail: a write per row
    # costs a system call each, and holding them all costs their whole text
    pending = []

    def report(message: str) -> None:
        pending.append(f"ingest: {message}\n")
        if len(pending) == _DIAGNOSTIC_SLICE:
            sys.stderr.write("".join(pending))
            pending.clear()

    try:
        # lines are split as bytes, so a line that is not UTF-8 costs only
        # itself a row diagnostic; splitlines ends a line where text mode does.
        # The list is freed with this call, and the bytes after it, so that
        # only the records are held while the catalog renders
        records = ingest_weight_list(
            data.splitlines(), cfg, report=report, expand_torsion=ns.expand_torsion
        )
    finally:  # a run the record budget ends still writes the rows before it
        if pending:  # an empty write still fails on a stream that cannot be written
            sys.stderr.write("".join(pending))
            pending.clear()
    del data
    return render_catalog(records, ns.format, cfg, ns.expand_torsion)


# each failure class, in the order it is matched, with its exit code and
# the prefix of its one stderr line
_FAILURES = {UsageError: (1, "usage error"), IntegrityError: (2, "integrity error"),
             OSError: (3, "i/o error"), ResourceBudgetError: (4, "resource budget error")}


def _flush(stream) -> None:
    """Flush a stream main wrote to, while main can still return a code: a
    buffered stream fails only when flushed, and the interpreter's flush at
    exit would end the process with status 120.  If the flush fails on the
    interpreter's own stdout or stderr, its descriptor is pointed at
    os.devnull, which takes the bytes left, so that the flush at exit does
    not fail on them again; then the OSError is raised."""
    try:
        if hasattr(stream, "flush"):  # not None, nor a stand-in without one
            stream.flush()
    except OSError:
        if stream is sys.__stdout__ or stream is sys.__stderr__:
            import os
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            stream.flush()
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point mapping the error taxonomy onto exit codes;
    argv defaults to sys.argv[1:]."""
    try:
        try:
            ns = _build_parser().parse_args(argv)
            _write_output(ns.handler(ns), ns.out)
        except SystemExit as exc:
            # argparse ends --help and --version this way, after printing them
            return exc.code
        finally:
            _flush(sys.stdout)
        return 0
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[cls] for cls in _FAILURES if isinstance(exc, cls))
        # a stderr that cannot be written must not replace the failure's code
        with suppress(OSError):
            try:
                print(f"{prefix}: {exc}", file=sys.stderr)
            finally:
                _flush(sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
