import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from milnor_algebra import (
    milnor_algebra_betti,
    milnor_algebra_torsion,
    monodromy,
    poincare_series,
    torsion_group,
)
from test_links import invertible_systems, repeated_block_systems

from selinks import (
    FactoredPower,
    IntegrityError,
    ResourceBudgetError,
    ScanConfig,
    UsageError,
    WeightSystem,
    betti_bp_oracle,
    branched_cover,
    count_monomials,
    fermat_betti,
    genus,
    ingest_weight_list,
    milnor_orlik_betti,
    quasi_smooth_generic,
    scan_all,
    torsion_order,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bp_weight_system(a):
    big_l = math.lcm(*a)
    return WeightSystem(tuple(big_l // ai for ai in a), big_l)


def milnor_orlik_subset_sum(ws):
    """The Milnor-Orlik sum literally, over all 2^m index subsets.

    Each subset S contributes (-1)^(m-|S|) prod_S u_i / (prod_S v_i lcm_S u_i)
    with u_i/v_i = d/w_i in lowest terms; the empty subset contributes
    (-1)^m.  Returns the exact total, integral or not.
    """
    d = ws.degree
    ratios = [(d // math.gcd(d, w), w // math.gcd(d, w)) for w in ws.weights]
    total = Fraction(0)
    for size in range(ws.m + 1):
        for subset in itertools.combinations(ratios, size):
            term = Fraction(
                math.prod(u for u, _ in subset),
                math.prod(v for _, v in subset) * math.lcm(*(u for u, _ in subset)),
            )
            total += term if (ws.m - size) % 2 == 0 else -term
    return total


# the enumeration oracle comes first: its examples are small enough to list
# by hand, and everything else is checked against it


def test_oracle_hand_counts():
    # (4,4,4): the 3 permutations of (1,1,2) and the 3 of (2,3,3)
    assert betti_bp_oracle((4, 4, 4)) == 6
    # (6,3,2): exactly (1,1,1) and (5,2,1)
    assert betti_bp_oracle((6, 3, 2)) == 2
    # (2,2): only (1,1); 1/2 + 1/2 = 1
    assert betti_bp_oracle((2, 2)) == 1


def test_oracle_budget_and_validation():
    with pytest.raises(ResourceBudgetError):
        betti_bp_oracle((1000, 1000, 1000), budget=10**4)
    with pytest.raises(UsageError):
        betti_bp_oracle((4, 1))


def test_milnor_orlik_reproduces_oracle_values():
    assert milnor_orlik_betti(bp_weight_system((4, 4, 4))) == 6
    assert milnor_orlik_betti(bp_weight_system((6, 3, 2))) == 2
    assert milnor_orlik_betti(bp_weight_system((2, 2))) == 1


def test_milnor_orlik_named_values():
    assert milnor_orlik_betti(WeightSystem((1, 1, 1, 1), 4)) == 21
    assert milnor_orlik_betti(WeightSystem((1,) * 5, 5)) == 204
    # hand evaluation: -1 + 3 - 6 + 6
    assert milnor_orlik_betti(WeightSystem((1, 2, 3), 6)) == 2
    assert milnor_orlik_betti(WeightSystem((1, 1, 1), 4)) == 6
    # mixed canonical base for m=3
    assert milnor_orlik_betti(WeightSystem((1, 1, 3), 6)) == 4


def test_milnor_orlik_oracle_equivalence_sample():
    for m in (2, 3):
        for a in itertools.product(range(2, 6), repeat=m):
            assert milnor_orlik_betti(bp_weight_system(a)) == betti_bp_oracle(a), a


def test_milnor_orlik_permutation_invariance():
    base = (1, 2, 3)
    values = {milnor_orlik_betti(WeightSystem(p, 6)) for p in itertools.permutations(base)}
    assert values == {2}


def test_milnor_orlik_rejects_non_integral():
    # (2,3,4;9) has no quasi-smooth member and Eq-sum 3/4
    with pytest.raises(IntegrityError):
        milnor_orlik_betti(WeightSystem((2, 3, 4), 9))


def test_fermat_cy_betti():
    # the Fermat Calabi-Yau base (1, ..., 1; m) is the case l = m
    assert fermat_betti(3, 3) == 2
    assert fermat_betti(4, 4) == 21
    assert fermat_betti(5, 5) == 204
    for m in range(3, 8):
        assert fermat_betti(m, m) == milnor_orlik_betti(WeightSystem((1,) * m, m))
    with pytest.raises(UsageError):
        fermat_betti(2, 2)


def test_fermat_betti():
    assert fermat_betti(3, 4) == 6  # (l-2)(l-1)
    assert fermat_betti(3, 5) == 12
    assert fermat_betti(4, 5) == 52
    for m in range(3, 6):
        for l in range(2, 8):
            assert fermat_betti(m, l) == milnor_orlik_betti(WeightSystem((1,) * m, l))
    for l in range(2, 10):
        assert fermat_betti(3, l) == (l - 2) * (l - 1)
    with pytest.raises(UsageError, match="l must be at least 2, got 1"):
        fermat_betti(3, 1)


def test_the_mixed_family_base_has_a_positive_betti_number_for_every_m():
    # README ("How certificates are computed") counts b of (1, ..., 1, m; 2m)
    # by roots of unity: ((2m - 1)^(m - 1) + (-1)^m) / (2m), which is
    # positive because (2m - 1)^(m - 1) > 1, so every cover is a nontrivial
    # rational homology sphere
    for m in range(3, 301):
        numerator = (2 * m - 1) ** (m - 1) + (-1) ** m
        b = milnor_orlik_betti(WeightSystem((1,) * (m - 1) + (m,), 2 * m))
        assert 2 * m * b == numerator and b > 0, m


def test_genus_values():
    assert genus(WeightSystem((1, 2, 3), 6)) == 1
    assert genus(WeightSystem((1, 1, 1), 4)) == 3
    assert genus(WeightSystem((1, 1, 2), 4)) == 1
    assert genus(WeightSystem((1, 1, 3), 6)) == 2
    assert genus(WeightSystem((1, 2, 4), 8)) == 1  # genus 1 with |w| != d
    for d in range(3, 8):
        assert genus(WeightSystem((1, 1, 1), d)) == (d - 1) * (d - 2) // 2


def test_genus_errors():
    with pytest.raises(UsageError):
        genus(WeightSystem((1, 1, 1, 1), 4))
    with pytest.raises(IntegrityError):
        genus(WeightSystem((2, 3, 4), 9))


def test_betti_is_twice_genus_on_corpus(qs_triple_corpus):
    for ws in qs_triple_corpus:
        assert milnor_orlik_betti(ws) == 2 * genus(ws), str(ws)


def test_torsion_order_values():
    t = torsion_order(5, WeightSystem((1, 2, 3), 6))
    assert (t.base, t.exponent) == (5, 2)
    assert t.expand() == 25
    t = torsion_order(3, WeightSystem((1, 1, 1), 4))
    assert t.expand() == 729
    t = torsion_order(13, WeightSystem((1, 1, 1, 1), 4))
    assert (t.base, t.exponent) == (13, 21)
    assert t.expand() == 13**21


def test_torsion_order_refuses_without_hypothesis():
    with pytest.raises(UsageError, match=r"gcd\(k, d\) = gcd\(3, 6\) > 1"):
        torsion_order(3, WeightSystem((1, 2, 3), 6))


def test_torsion_order_stays_factored():
    t = torsion_order(21, WeightSystem((1,) * 5, 5))
    assert t == FactoredPower(21, 204)
    assert str(t) == "21^204"
    assert len(str(t.expand())) > 200
    with pytest.raises(UsageError):
        FactoredPower(1, 5)


def test_subset_sum_oracle_hand_value():
    # (1,2,3;6), u = (6,3,2), v = (1,1,1): -1 + 3 - (18/6 + 12/6 + 6/6) + 36/6 = 2
    assert milnor_orlik_subset_sum(WeightSystem((1, 2, 3), 6)) == 2
    # (2,3,4;9) has no quasi-smooth member
    assert milnor_orlik_subset_sum(WeightSystem((2, 3, 4), 9)) == Fraction(3, 4)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=7), st.integers(1, 60))
def test_milnor_orlik_equals_the_subset_sum(weights, degree):
    # on every system, quasi-smooth or not: an integral non-negative total
    # is the Betti number, anything else is refused
    ws = WeightSystem(tuple(weights), degree)
    total = milnor_orlik_subset_sum(ws)
    if total.denominator == 1 and total >= 0:
        assert milnor_orlik_betti(ws) == total
    else:
        with pytest.raises(IntegrityError):
            milnor_orlik_betti(ws)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=2, max_size=5))
def test_milnor_orlik_equals_the_brieskorn_pham_count(a):
    assert milnor_orlik_betti(bp_weight_system(a)) == betti_bp_oracle(a)


def test_fermat_24_is_quasi_smooth_with_its_closed_form_betti():
    # 2^24 subsets for the literal sum and the literal subset test
    ws = WeightSystem((1,) * 24, 24)
    assert milnor_orlik_betti(ws) == fermat_betti(24, 24)
    assert quasi_smooth_generic(ws)


# the Milnor algebra is the second route to b_{m-2} on every base, not only
# the Brieskorn-Pham ones `betti_bp_oracle` covers


def test_the_poincare_series_by_hand():
    # (1,1,1;3): (1 + t)^3, Milnor number 8; the eigenvalue 1 sits at t^0, t^3
    assert poincare_series((1, 1, 1), 3) == [1, 3, 3, 1]
    assert milnor_algebra_betti((1, 1, 1), 3) == 2
    # (1,2,3;6): P = (1 + t + ... + t^4)(1 + t + t^2 + t^3)(1 + t + t^2)
    assert sum(poincare_series((1, 2, 3), 6)) == 5 * 2 * 1
    assert poincare_series((2, 3), 6) == [1, 0, 1]  # x^3 + y^2: 1, x
    # a weight equal to d: a linear term, so the Milnor algebra is 0
    assert poincare_series((1, 4), 4) == [0, 0, 0]


def test_milnor_algebra_betti_on_every_catalog_base(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import ingest_rows

    try:
        ingested = {(w, d) for w, d, _ in ingest_rows(0).keys}
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("oracles", None)
    families = {rec.base for rec in scan_all(ScanConfig(k_bound=400, m_range=(3, 10)))}
    bases = {WeightSystem(w, d) for w, d in ingested} | families
    assert (len(ingested), len(families), len(bases)) == (177, 26, 203)
    for ws in bases:
        assert milnor_algebra_betti(ws.weights, ws.degree) == milnor_orlik_betti(ws), ws


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invertible_systems() | repeated_block_systems())
def test_milnor_algebra_betti_equals_milnor_orlik(ws):
    if quasi_smooth_generic(ws):
        assert milnor_algebra_betti(ws.weights, ws.degree) == milnor_orlik_betti(ws)


def test_milnor_algebra_betti_on_the_triple_corpus(qs_triple_corpus):
    for ws in qs_triple_corpus:
        assert milnor_algebra_betti(ws.weights, ws.degree) == milnor_orlik_betti(ws), ws


@pytest.fixture(scope="module")
def catalog_records():
    """Every record of the four family scans at k-bound 60, m 3..6, and of the
    benchmark's seed-0 ingest rows at k-bound 13."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        from workloads import ingest_rows

        try:
            lines = ingest_rows(0).lines
        finally:
            sys.modules.pop("workloads", None)
            sys.modules.pop("oracles", None)
    ingested = ingest_weight_list(lines, ScanConfig(k_bound=13)).records
    return scan_all(ScanConfig(k_bound=60, m_range=(3, 6))) + ingested


def test_the_torsion_order_by_hand():
    # z_0^5 + x^3 + y^3 + z^3: 8 eigenvalues of order 5 give 5^(8/4), and
    # the 24 of order 15 give 1
    assert milnor_algebra_torsion((3, 5, 5, 5), 15) == 25
    # (1,1,1;3) itself has the eigenvalue 1 twice (b_1 = 2)
    assert milnor_algebra_torsion((1, 1, 1), 3) == 0


def test_every_catalog_cover_is_a_rational_homology_sphere_with_its_torsion(catalog_records):
    # 1,329 records: the ingest rows repeat three bases
    torsions = {(rec.base, rec.k): rec.torsion for rec in catalog_records}
    assert (len(catalog_records), len(torsions)) == (1329, 1276)
    for (base, k), torsion in torsions.items():
        cover = branched_cover(k, base).cover
        assert milnor_orlik_betti(cover) == 0, cover
        # the oracle is 0 exactly when 1 is an eigenvalue, and k^b >= 1; the
        # power is built by hand, since some pass the digit budget of `expand`
        assert milnor_algebra_torsion(cover.weights, cover.degree) == k**torsion.exponent, cover


def test_the_torsion_group_by_hand():
    # z^3 is t on Z[t] / (1 + t + t^2): t t = t^2 = -1 - t
    assert monodromy((3,)) == [{1: -1}, {0: 1, 1: -1}]
    # k = 2 on (1,1,1;3): order 4, and the group is (Z/2)^2, not Z/4
    assert torsion_group((2, 3, 3, 3)) == [2, 2]
    assert torsion_group((4, 3, 3, 3)) == [4, 4]
    assert torsion_group((5, 2, 3, 6)) == [5, 5]
    # the link of x^3 + y^3 + z^3 itself: H_1 = Z/3 + Z^2, b_1 = 2
    assert torsion_group((3, 3, 3)) == [3, 0, 0]


# the most rows h - I of a cover may have in the test below
TORSION_GROUP_ROWS = 200


def test_each_small_brieskorn_pham_cover_has_the_torsion_group_z_k_to_the_b(catalog_records):
    # H_{m-1} of the k-fold cover is (Z/k)^b, b the base's Betti number, and
    # torsion_order gives its order: 36 covers of five bases, k up to 26, at
    # most 200 rows
    covers = {
        (rec.base, rec.k): (rec.torsion, exponents)
        for rec in catalog_records
        if rec.family_tag in ("euclidean5", "fermat_cy", "hyperbolic")  # theorem2 is euclidean5
        for exponents in [branched_cover(rec.k, rec.base).bp_exponents]
        if exponents and math.prod(a - 1 for a in exponents) <= TORSION_GROUP_ROWS
    }
    assert len(covers) == 36
    for (base, k), (torsion, exponents) in covers.items():
        b = milnor_orlik_betti(base)
        assert torsion_group(exponents) == [k] * b, exponents
        assert torsion == torsion_order(k, base) == FactoredPower(k, b), exponents


# the most coefficients a drawn cover's Poincaré series may have
COVER_SERIES_LIMIT = 3000


@settings(derandomize=True, max_examples=100, deadline=None)
@given(invertible_systems() | repeated_block_systems(), st.data())
def test_the_torsion_oracle_on_drawn_covers(ws, data):
    # the cover (d, k w; k d) has a series of sum (k d - 2 v) + 1 coefficients
    # over its weights v, which is k ((m + 1) d - 2 |w|) - 2 d + 1; a weight
    # equal to d is a linear term, whose Milnor algebra is 0
    assume(max(ws.weights) < ws.degree and quasi_smooth_generic(ws))
    per_k = (ws.m + 1) * ws.degree - 2 * ws.norm
    top = (COVER_SERIES_LIMIT - 1 + 2 * ws.degree) // per_k
    coprime = [k for k in range(2, top + 1) if math.gcd(k, ws.degree) == 1]
    assume(coprime)
    k = data.draw(st.sampled_from(coprime), label="k")
    cover = branched_cover(k, ws).cover
    assert len(poincare_series(cover.weights, cover.degree)) <= COVER_SERIES_LIMIT
    assert milnor_orlik_betti(cover) == 0, cover
    torsion = torsion_order(k, ws)
    assert milnor_algebra_torsion(cover.weights, cover.degree) == k**torsion.exponent, cover


def test_the_adjunction_genus_on_every_catalog_triple(catalog_records, qs_triple_corpus):
    # g = h^0(K_C) and K_C = O(d - |w|) on the orbit curve C of (w; d)
    bases = {rec.base for rec in catalog_records if rec.m == 3} | set(qs_triple_corpus)
    for ws in bases:
        canonical = ws.degree - ws.norm
        assert (count_monomials(ws.weights, canonical) if canonical >= 0 else 0) == genus(ws), ws
