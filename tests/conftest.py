import math

import pytest

from selinks import IntegrityError, WeightSystem, quasi_smooth_generic, survey


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


@pytest.fixture
def genus_raises_on(monkeypatch):
    """Make the catalog's genus raise IntegrityError on one given system.

    No reduced quasi-smooth system is known whose genus comes out
    impossible, so ingest's per-row isolation is tested with this fake.
    """

    def install(bad: WeightSystem) -> None:
        real_genus = survey.genus

        def genus(ws):
            if ws == bad:
                raise IntegrityError(f"genus of {ws} evaluates to -5/4, not a non-negative integer")
            return real_genus(ws)

        monkeypatch.setattr(survey, "genus", genus)

    return install
