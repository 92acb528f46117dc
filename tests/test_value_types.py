"""The record and result types are immutable values: NamedTuples, three of
them validated on construction (`WeightSystem`, `FactoredPower`,
`ScanConfig`)."""

import re
from pathlib import Path

import pytest

from selinks import (
    FactoredPower,
    ScanConfig,
    UsageError,
    WeightSystem,
    bp_sufficient_ke,
    branched_cover,
    certify_cover,
    ingest_weight_list,
    moduli_count,
    scan_fermat_cy,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "selinks"

# one factory per type; each call builds a new, equal value
VALUES = {
    "FactoredPower": lambda: FactoredPower(3, 4),
    "WeightSystem": lambda: WeightSystem((1, 1, 2), 4),
    "CoverData": lambda: branched_cover(3, WeightSystem((1, 1, 2), 4)),
    "BpVerdict": lambda: bp_sufficient_ke((3, 4, 4, 4)),
    "KeCertificate": lambda: certify_cover(3, WeightSystem((1, 1, 2), 4)),
    "ModuliCount": lambda: moduli_count(WeightSystem((1, 1, 1), 3)),
    "ScanConfig": lambda: ScanConfig(k_bound=5),
    "FamilyRecord": lambda: scan_fermat_cy(ScanConfig(k_bound=5, m_range=(3, 3)))[0],
    "IngestResult": lambda: ingest_weight_list(["1,1,1;3", "foo"], ScanConfig(k_bound=5)),
}
# it holds lists, so it has no hash
UNHASHABLE = {"IngestResult"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_immutable(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "extra"


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


# keyword and positional forms; test_links, test_arith and test_survey hold
# the other cases
@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightSystem(weights=(1,), degree=3),
        lambda: WeightSystem((1, 1, 1), degree=0),
        lambda: FactoredPower(base=1, exponent=2),
        lambda: FactoredPower(2, exponent=-1),
        lambda: ScanConfig(0),
        lambda: ScanConfig(60, 0),
        lambda: ScanConfig(60, 60, (2, 8)),
        lambda: ScanConfig(60, 60, (3, 8), 1),
    ],
)
def test_bad_arguments_raise_usage_error(build):
    with pytest.raises(UsageError):
        build()


def test_a_weight_system_given_by_keyword_is_reduced():
    ws = WeightSystem(weights=[2, 2, 2], degree=6)
    assert ws == WeightSystem((1, 1, 1), 3)
    assert (ws.weights, ws.degree) == ((1, 1, 1), 3)


def test_scan_config_fields_and_thread_budget():
    assert ScanConfig._fields == ("weight_bound", "k_bound", "m_range", "k_min")
    assert ScanConfig.thread_budget == 1
    cfg = ScanConfig(20, k_min=3)
    assert cfg._asdict() == {"weight_bound": 20, "k_bound": 60, "m_range": (3, 8), "k_min": 3}
    assert cfg.thread_budget == 1


def test_nothing_in_the_package_skips_validation():
    # _replace and _make build a tuple without calling __new__
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\._(replace|make)\(", text), path.name
