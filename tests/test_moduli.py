import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selinks import (
    UsageError,
    WeightSystem,
    branched_cover,
    count_monomials,
    fermat_cy_moduli,
    hyperbolic_moduli,
    moduli_count,
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
