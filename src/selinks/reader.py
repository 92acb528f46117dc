"""Catalog reader: the JSON catalog read back into its records, exactly.

Only `cli.parse_catalog_json` imports this module, so no command loads it.
A catalog is read by one rule: it must be what `cli.render_catalog` writes
for the records it stores, sorted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from . import cli
from .arith import FactoredPower
from .errors import UsageError
from .ke_cert import KeCertificate
from .links import WeightSystem, torsion_hypothesis
from .moduli import ModuliCount
from .survey import FamilyRecord, ScanConfig

# the class of each FamilyRecord attribute assembled from several fields
_PART_CLASSES = {"base": WeightSystem, "moduli": ModuliCount, "certificate": KeCertificate}
# (JSON group, JSON key, attribute group, attribute, decode) of each stored
# field, where decode builds the value from its JSON (None: as parsed)
_STORED_FIELDS = tuple(
    (*cli._split(f.json_path), group, name, decoders.get(f.codec))
    for decoders in [{
        cli._TORSION: lambda obj: FactoredPower(obj["base"], obj["exponent"]),
        cli._FRACTION: lambda obj: Fraction(obj["num"], obj["den"]),
    }]
    for f in cli._FIELDS
    for group, name in [cli._split(f.attr_path)]
    if name in (FamilyRecord if group is None else _PART_CLASSES[group])._fields
)


def _record(obj: Any) -> FamilyRecord:
    """The record whose stored fields (`_STORED_FIELDS`) `obj` holds, its base
    made canonical.  The fields it derives are left to the re-render."""
    parts: dict = {group: {} for group in (None, *_PART_CLASSES)}
    for json_group, json_key, group, name, decode in _STORED_FIELDS:
        value = (obj if json_group is None else obj[json_group])[json_key]
        parts[group][name] = value if decode is None else decode(value)
    top = parts.pop(None)
    top.update((group, cls(**parts[group])) for group, cls in _PART_CLASSES.items())
    top["base"] = top["base"].canonical()
    return FamilyRecord(**top)


def _first_difference(found: str, expected: str) -> str:
    """Where the catalog text `found` first departs from `expected`, both laid
    out by json.dumps(indent=2): `meta`, a record by its index or the catalog,
    then the key of the first differing line (of its list, for a list item)
    with the value in each.  Trailing commas are dropped, so an added or a
    missing member is the one named."""
    lines, wants = ([line.rstrip(",") for line in text.splitlines()] for text in (found, expected))
    same = [a == b for a, b in zip(lines, wants)]
    n = same.index(False) if False in same else len(same)
    head = lines[:n]
    if '  "records": [' not in head:
        where = "catalog meta"
    elif "  ]" in head:  # past the records
        where = "catalog"
    else:
        where = f"catalog record {head.count('    {') - 1}"
    line, want = (text[n].strip() if n < len(text) else "the end" for text in (lines, wants))
    key, sep, value = line.partition('": ')
    want_key, want_sep, want_value = want.partition('": ')
    opened = next((text for text in reversed(head) if text.endswith(("[", "]"))), "]")
    listed = opened.split('"')[1] if opened.endswith("[") else None
    if sep and want_sep and key == want_key:
        # a list or an object that opens on the line goes on past it
        value, want_value = ({"[": "[...]", "{": "{...}"}.get(v, v) for v in (value, want_value))
        difference = f"{key[1:]} is {value}, expected {want_value}"
    elif listed and not sep and not want_sep:  # items of one list
        difference = f"{listed} holds {line}, expected {want}"
    else:
        difference = f"found {line}, expected {want}"
    return f"{where} differs from the writer's: {difference}"


def parse_catalog_json(text: str) -> tuple[dict, list[FamilyRecord]]:
    # documented at `cli.parse_catalog_json`; it renders through the name
    # cli.render_catalog, so a wrapper bound over it (perfbench/trace.py) sees the call
    try:
        payload = json.loads(text)
        meta, objs = payload["meta"], payload["records"]
        bounds, expand_torsion = meta["bounds"], meta["expand_torsion"] is True
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"malformed catalog: {exc!r}") from None
    if not isinstance(objs, list):
        raise UsageError("malformed catalog: records is not a list")
    try:
        cfg = ScanConfig(**bounds)
    except (TypeError, ValueError) as exc:  # a UsageError is a ValueError
        raise UsageError(f"catalog bounds {bounds!r} are refused: {exc!r}") from None
    records = []
    for index, obj in enumerate(objs):
        try:
            rec = _record(obj)
            if not torsion_hypothesis(rec.k, rec.base):
                raise ValueError(f"k = {rec.k} is not coprime to the degree of {rec.base}")
            if not cfg.k_min <= rec.k <= cfg.k_bound:
                raise ValueError(f"k is {rec.k}, not in k_min..k_bound {cfg.k_min}..{cfg.k_bound}")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"malformed catalog record {index}: {exc!r}") from None
        records.append(rec)
    try:
        ordered = sorted(records, key=FamilyRecord.sort_key)
        written = cli.render_catalog(ordered, "json", cfg, expand_torsion)
    except (TypeError, ValueError) as exc:  # a value of a type the writer cannot write
        # rendered one at a time in input order, the first record that fails is named
        for index, rec in enumerate(records):
            try:
                cli.render_catalog([rec], "json", cfg, expand_torsion)
            except (TypeError, ValueError) as error:
                raise UsageError(f"malformed catalog record {index}: {error!r}") from None
        raise UsageError(f"malformed catalog: {exc!r}") from None
    if written != text:
        # under indent, json.dumps runs its pure-Python encoder: only text
        # that is not the writer's own pays for it
        found = json.dumps(payload, indent=2) + "\n"
        if written != found:
            raise UsageError(_first_difference(found, written))
    return meta, ordered
