import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from selinks import (
    IntegrityError,
    KeCertificate,
    WeightSystem,
    bp_sufficient_ke,
    branched_cover,
    quasi_smooth_generic,
    topology,
)


@pytest.fixture(scope="session")
def qs_triple_corpus() -> list[WeightSystem]:
    """Every quasi-smooth singularity class (w1<=w2<=w3<=6; d<=24).

    Restricted to presentations that are links of isolated singularities:
    gcd of the weights 1 (effective circle action) and d above every weight
    (no linear monomial, so the origin really is singular).
    """
    corpus = []
    for w1 in range(1, 7):
        for w2 in range(w1, 7):
            for w3 in range(w2, 7):
                if math.gcd(w1, math.gcd(w2, w3)) != 1:
                    continue
                for d in range(w3 + 1, 25):
                    ws = WeightSystem((w1, w2, w3), d)
                    if quasi_smooth_generic(ws):
                        corpus.append(ws)
    assert len(corpus) > 100
    return corpus


@pytest.fixture(scope="session")
def seed0_ingest_lines() -> list[str]:
    """The lines of the benchmark's seed-0 ingest file (2,000 rows and a
    comment line), drawn by perfbench/workloads.py."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(perfbench)
        from workloads import ingest_rows

        try:
            return ingest_rows(0).lines
        finally:
            sys.modules.pop("workloads", None)
            sys.modules.pop("oracles", None)


@pytest.fixture
def digit_limit_off():
    """The interpreter's int-to-str limit switched off, as PYTHONINTMAXSTRDIGITS=0
    switches it off, and restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def genus_raises_on(monkeypatch):
    """Make the catalog's genus raise IntegrityError on one given system.

    No reduced quasi-smooth system is known whose genus comes out
    impossible, so ingest's per-row isolation is tested with this fake.
    """

    def install(bad: WeightSystem) -> None:
        real_genus = topology.genus

        def genus(ws):
            if ws == bad:
                raise IntegrityError(f"genus of {ws} evaluates to -5/4, not a non-negative integer")
            return real_genus(ws)

        monkeypatch.setattr(topology, "genus", genus)

    return install


def _literal_certificate(k: int, base: WeightSystem) -> KeCertificate:
    """The certificate of the k-fold cover of `base`, computed the literal
    way: the sufficiency test on the cover's own exponents when it has
    them, otherwise the two sides of the necessary klt inequality,
    k(|w| - d) + d < m/(m-1) min{d, k w_i}, with d winning ties and then
    the first index.  The Fano sign k(|w| - d) + d > 0 and the literal
    verdict must be what the certificate reads off its sides."""
    m, d = base.m, base.degree
    left = k * (base.norm - d) + d
    terms = [(d, "d")] + [(k * w, f"k*w[{i}]") for i, w in enumerate(base.weights, start=1)]
    least, witness = min(terms, key=lambda term: term[0])
    fano, nklt = left > 0, (m - 1) * left < m * least
    exponents = branched_cover(k, base).bp_exponents
    if exponents is None:
        right = Fraction(m * least, m - 1)
        cert, verdict = KeCertificate(nklt, False, Fraction(left), right, witness), False
    else:
        bp = bp_sufficient_ke(exponents)
        cert = KeCertificate(nklt, True, bp.reciprocal_sum, bp.bound, bp.limiting_witness)
        verdict = bp.verdict
    assert (cert.fano, cert.bp_sufficient) == (fano, verdict), (k, base)
    return cert


@pytest.fixture(scope="session")
def literal_certificate():
    """The literal certificate recipe, the oracle for `certify_cover`."""
    return _literal_certificate
