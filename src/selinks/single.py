"""The single-system commands: ``invariants``, ``cover``, ``certify`` and
``moduli``.

Each handler turns its parsed namespace into the text it writes.  Only
those four commands load this module (`cli._run_single`), so a scan, an
ingest run and `--version` compile none of it.
"""

from __future__ import annotations

import argparse
from typing import Any

from .arith import check_digits
from .links import WeightSystem, _quasi_smooth, branched_cover, classify_case, torsion_hypothesis

# the kernels, fractions and json are imported where they run


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
        import json
        return json.dumps(payload, indent=2) + "\n"
    width = max(len(key) for key in payload)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in payload.items()) + "\n"


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
