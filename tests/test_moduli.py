import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_links import invertible_systems, repeated_block_systems

from selinks import (
    ScanConfig,
    UsageError,
    WeightSystem,
    arith,
    branched_cover,
    count_monomials,
    fermat_cy_moduli,
    hyperbolic_moduli,
    ingest_weight_list,
    links,
    moduli,
    moduli_count,
    quasi_smooth_generic,
    scan_all,
)


def test_moduli_count_named_covers():
    # 7-dimensional Fermat Calabi-Yau cover, k = 13
    mc = moduli_count(WeightSystem((4, 13, 13, 13, 13), 52))
    assert (mc.complex_dim, mc.real_dim) == (19, 38)
    # 5-dimensional hyperbolic cover, (l, k) = (4, 3)
    mc = moduli_count(WeightSystem((4, 3, 3, 3), 12))
    assert (mc.complex_dim, mc.real_dim) == (6, 12)
    # cubic Euclidean cover, k = 7
    mc = moduli_count(WeightSystem((3, 7, 7, 7), 21))
    assert (mc.h0_degree, mc.h0_weights_sum) == (11, 10)
    assert (mc.complex_dim, mc.real_dim) == (1, 2)
    # d = 6 Euclidean cover, k = 5
    mc = moduli_count(WeightSystem((6, 5, 10, 15), 30))
    assert (mc.h0_degree, mc.h0_weights_sum) == (8, 7)
    assert (mc.complex_dim, mc.real_dim) == (1, 2)


def test_moduli_count_invariants():
    for weights, d in [((4, 3, 3, 3), 12), ((1, 1), 1), ((6, 5, 10, 15), 30)]:
        mc = moduli_count(WeightSystem(weights, d))
        assert mc.complex_dim == mc.h0_degree - mc.h0_weights_sum
        assert mc.real_dim == 2 * max(mc.complex_dim, 0)


def test_moduli_count_negative_raw_value():
    # h^0(O(1)) = 2 but the weight sum contributes 4: raw count -2, real 0
    mc = moduli_count(WeightSystem((1, 1), 1))
    assert mc.complex_dim == -2
    assert mc.real_dim == 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    pool=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=2, max_size=12),
    degree=st.integers(1, 30),
)
def test_moduli_count_sums_h0_over_every_index(pool, picks, degree):
    # one count per distinct weight, times its multiplicity, is the sum over indices
    weights = tuple(pool[i % len(pool)] for i in picks)
    ws = WeightSystem(weights, degree)
    mc = moduli_count(ws)
    assert mc.h0_weights_sum == sum(count_monomials(ws.weights, w) for w in ws.weights)
    assert mc.h0_degree == count_monomials(ws.weights, ws.degree)


def test_fermat_cy_moduli_closed_form():
    assert fermat_cy_moduli(3) == 1
    assert fermat_cy_moduli(4) == 19
    assert fermat_cy_moduli(5) == 101
    with pytest.raises(UsageError):
        fermat_cy_moduli(2)


def test_fermat_cy_moduli_matches_literal_count_and_is_k_independent():
    for m in range(3, 8):
        expected = fermat_cy_moduli(m)
        ks = [k for k in range(m + 1, 100) if math.gcd(k, m) == 1][:3]
        for k in ks:
            cover = branched_cover(k, WeightSystem((1,) * m, m)).cover
            assert moduli_count(cover).complex_dim == expected, (m, k)


def test_fermat_cy_moduli_exponential_growth():
    for m in range(4, 13):
        assert fermat_cy_moduli(m + 1) > 2 * fermat_cy_moduli(m)


def test_hyperbolic_moduli():
    assert hyperbolic_moduli(3, 4) == 6
    assert hyperbolic_moduli(4, 5) == 40
    for m in range(3, 9):
        assert hyperbolic_moduli(m, m + 1) == math.comb(2 * m, m + 1) - m * m
    with pytest.raises(UsageError):
        hyperbolic_moduli(3, 7)
    with pytest.raises(UsageError, match="m must be at least 3, got 2"):
        hyperbolic_moduli(2, 3)


def test_hyperbolic_moduli_matches_literal_count():
    for m, l, k in [(3, 4, 3), (4, 5, 4), (5, 6, 5)]:
        cover = branched_cover(k, WeightSystem((1,) * m, l)).cover
        assert moduli_count(cover).complex_dim == hyperbolic_moduli(m, l)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    weights=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    degree=st.integers(2, 16),
    ks=st.lists(st.integers(2, 40), min_size=2, max_size=4),
)
def test_cover_moduli_count_is_the_same_for_every_coprime_k(weights, degree, ks):
    # z_0 has weight d on the cover, so a cover monomial of degree k t has
    # z_0-exponent a multiple of k: h0_cover(O(k t)) = sum_j h0_base(O(t - j d))
    base = WeightSystem(tuple(weights), degree)
    ks = [k for k in ks if math.gcd(k, degree) == 1]
    h0_degree = count_monomials(weights, degree) + 1
    h0_weights_sum = 1 + sum(
        count_monomials(weights, w - j * degree)
        for w in weights
        for j in range(w // degree + 1)
    )
    for k in ks:
        mc = moduli_count(branched_cover(k, base).cover)
        assert (mc.h0_degree, mc.h0_weights_sum) == (h0_degree, h0_weights_sum), k


# the base table of a coprime cover: h0_degree = t[d] + 1 and
# h0_weights_sum = 1 + sum_i sum_{j >= 0} t[w_i - j d], checked against the
# literal count on the cover system, moduli_count(branched_cover(k, base).cover)


def test_a_weight_equal_to_d_keeps_its_j_1_term():
    # a linear term w_i = d is quasi-smooth, and its cover weight k d counts
    # z_0^k as well as the base monomials of degree d: t[d] + t[0]
    for weights, d, literal, without_j_1 in [
        ((1, 1, 3), 3, 11, 10),
        ((1, 2, 5), 5, 9, 8),
        ((2, 3, 6), 6, 7, 6),
    ]:
        base = WeightSystem(weights, d)
        assert quasi_smooth_generic(base)
        t = count_monomials(weights, d, table=True)
        assert 1 + sum(t[w] for w in weights) == without_j_1
        for k in (7, 11, 13):
            cover = branched_cover(k, base)
            assert moduli_count(cover).h0_weights_sum == literal, (base, k)
            assert moduli_count(cover) == moduli_count(cover.cover), (base, k)


def _assert_each_base_counts_as_its_literal_cover(records) -> int:
    """Every record's moduli is the literal count on the cover of the least k
    of its base, and so is the base-table count; the number of bases."""
    by_base = {}
    for rec in records:
        by_base.setdefault(rec.base, []).append(rec)
    for base, recs in by_base.items():
        cover = branched_cover(min(rec.k for rec in recs), base)
        literal = moduli_count(cover.cover)
        assert moduli_count(cover) == literal, base
        assert {rec.moduli for rec in recs} == {literal}, base
    return len(by_base)


def test_every_family_base_counts_as_its_literal_cover():
    records = scan_all(ScanConfig(k_bound=60, m_range=(3, 6)))
    assert _assert_each_base_counts_as_its_literal_cover(records) == 14


def test_every_seed_0_ingest_base_counts_as_its_literal_cover(seed0_ingest_lines):
    records = ingest_weight_list(seed0_ingest_lines, ScanConfig(), report=lambda _: None)
    assert _assert_each_base_counts_as_its_literal_cover(records) == 177


@st.composite
def quasi_smooth_bases(draw):
    """A drawn system, half the time with a linear term w = d added."""
    ws = draw(invertible_systems() | repeated_block_systems())
    if draw(st.booleans()):
        ws = WeightSystem(ws.weights + (ws.degree,), ws.degree)
    return ws


@settings(derandomize=True, max_examples=200, deadline=None)
@given(quasi_smooth_bases(), st.data())
def test_the_base_table_count_is_the_literal_cover_count_on_drawn_bases(ws, data):
    assume(quasi_smooth_generic(ws))
    # the literal count fills cover tables of k d + 1 cells
    coprime = [k for k in range(2, 41) if math.gcd(k, ws.degree) == 1 and k * ws.degree <= 2000]
    assume(coprime)
    cover = branched_cover(data.draw(st.sampled_from(coprime), label="k"), ws)
    assert moduli_count(cover) == moduli_count(cover.cover)


def test_ingest_counts_the_moduli_of_each_row_on_one_base_table(
    seed0_ingest_lines, monkeypatch
):
    # the per-base guard: one moduli count and one cover per accepted row,
    # at most 1 + (distinct weights) monomial counts each, and few cells.
    # Each kernel is wrapped where it is defined and wherever selinks bound it
    calls = {}
    for module, name in [(moduli, "moduli_count"), (links, "branched_cover"),
                         (arith, "count_monomials")]:
        real, log = getattr(module, name), calls.setdefault(name, [])

        def wrapper(*args, real=real, log=log, **kwargs):
            log.append(args)
            return real(*args, **kwargs)

        for bound in [m for n, m in sys.modules.items() if n.startswith("selinks")]:
            if vars(bound).get(name) is real:
                monkeypatch.setattr(bound, name, wrapper)
    errors = []
    ingest_weight_list(seed0_ingest_lines, ScanConfig(), report=errors.append)
    diagnosed = {int(error.split(":")[0].removeprefix("line ")) for error in errors}
    accepted = [
        WeightSystem.parse(line) for i, line in enumerate(seed0_ingest_lines, start=1)
        if i not in diagnosed and line.split("#")[0].strip()
    ]
    assert (len(seed0_ingest_lines), len(diagnosed), len(accepted)) == (2001, 1820, 180)
    assert len(calls["moduli_count"]) == len(calls["branched_cover"]) == 180
    assert len(calls["count_monomials"]) <= sum(1 + len(set(ws.weights)) for ws in accepted)
    cells = sum(len(tuple(weights)) * (target + 1) for weights, target in calls["count_monomials"])
    assert cells < 41_000
