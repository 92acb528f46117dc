"""Catalog writer: records to the JSON catalog, CSV and the table view.

Only `cli.render_catalog` and the catalog reader import this module, so a
command that writes no record catalog does not load it.
"""

from __future__ import annotations

import json
from itertools import chain, count, repeat, tee
from json.encoder import encode_basestring_ascii
from operator import attrgetter, methodcaller
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import __version__
from .errors import UsageError
from .survey import FamilyRecord, ScanConfig

CATALOG_SCHEMA = "selinks.catalog/1"


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


class _Memo(dict):
    """`memo[key]` is the text `fill` made from the first key equal to
    `key`, a text or a tuple of texts."""

    def __init__(self, fill: Callable[[Any], str]):
        super().__init__()
        self.fill = fill

    def __missing__(self, key) -> str:
        self[key] = text = self.fill(key)
        return text


def _append_text(parts: list, records: Sequence, fields, closing: str) -> None:
    """Append to `parts` the text of each record.

    `fields` gives, per field, the text before its value, its %-format, the
    chains that make its arguments from the record and whether it is
    per-cover; `closing` ends a record.  The fields are cut into runs,
    constant and per-cover by turns, each one %-format, with the text
    between two runs in the constant one.  A per-cover field whose format
    takes numbers (%d) is a run of its own; next per-cover fields whose one
    argument is a text share a run, with the text between them.

    Every run is filled from columns (`_columns`), so every chain runs for
    every record.  The texts of a per-cover run are kept once per call,
    keyed by text: a run of texts by those texts, in a `_Memo` that formats
    them when first met, and a run of numbers by the text it makes.  A
    constant run is filled once per _template_key, from the first record
    with that key, and the records with that key share its text.
    """
    runs = [["", [], False]]  # [format, chains, made of texts]; constant at even indices
    for text, fragment, chains, varies in (*fields, (closing, "", (), False)):
        of_texts = varies and len(chains) == 1  # a one-argument format formats a text
        if len(runs) % 2 == 0 and not (of_texts and runs[-1][2]):
            runs.append(["", [], False])
        runs[-1][0] += text.replace("%", "%%")
        if varies and len(runs) % 2:
            runs.append(["", [], of_texts])
        runs[-1][0] += fragment
        runs[-1][1] += chains
    # per record, the index of the first record with its key
    first: dict = {}
    firsts = list(map(first.setdefault, map(_template_key, records), count()))
    keyed = [records[index] for index in first.values()]
    columns = []
    for index, (fmt, chains, of_texts) in enumerate(runs):
        if index % 2:
            args = _columns(records, chains)
            if of_texts:  # formatted when first met
                keys = args[0] if len(args) == 1 else zip(*args)
                columns.append(map(_Memo(fmt.__mod__).__getitem__, keys))
            else:  # each text met before gives way to the first
                columns.append(map({}.setdefault, *tee(map(fmt.__mod__, zip(*args)))))
        elif chains:
            texts = map(fmt.__mod__, zip(*_columns(keyed, chains)))
            columns.append(map(dict(zip(first.values(), texts)).__getitem__, firsts))
        else:  # the same text for every key
            columns.append(repeat(fmt % (), len(records)))
    parts += chain.from_iterable(zip(*columns))


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
        from .csvtext import csv_text
        return csv_text(CSV_HEADER, zip(*_columns(records, map(cells.get, CSV_HEADER))))
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
