import itertools
import random
import sys

import pytest

from selinks import (
    FactoredPower,
    ResourceBudgetError,
    UsageError,
    binomial,
    count_monomials,
    gcd_many,
    lcm_many,
    reduced_fraction,
)


def test_gcd_many_examples():
    assert gcd_many((6, 4)) == 2
    assert gcd_many((5,)) == 5
    assert gcd_many((6, 10, 15)) == 1


def test_gcd_many_rejects_empty_and_nonpositive():
    with pytest.raises(UsageError):
        gcd_many(())
    with pytest.raises(UsageError):
        gcd_many((4, 0))


def test_lcm_many_examples():
    assert lcm_many((4, 6)) == 12
    assert lcm_many((6, 3, 2)) == 6
    assert lcm_many(()) == 1  # empty-product convention


def test_gcd_lcm_product_identity():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert gcd_many((a, b)) * lcm_many((a, b)) == a * b


def test_reduced_fraction_examples():
    assert reduced_fraction(6, 2) == (3, 1)
    assert reduced_fraction(5, 2) == (5, 2)
    assert reduced_fraction(6, 3) == (2, 1)


def test_reduced_fraction_exactness():
    rng = random.Random(2)
    for _ in range(200):
        d, w = rng.randint(1, 10**6), rng.randint(1, 10**4)
        u, v = reduced_fraction(d, w)
        assert u * w == v * d
        assert gcd_many((u, v)) == 1


def test_binomial():
    assert binomial(7, 4) == 35
    assert binomial(6, 4) == 15
    assert binomial(3, 5) == 0
    with pytest.raises(UsageError):
        binomial(-1, 2)


def test_count_monomials_classified_degrees():
    # monomial counts of the three |w| = d classes in three variables
    assert count_monomials((1, 2, 3), 6) == 7
    assert count_monomials((1, 1, 1), 3) == 10
    assert count_monomials((1, 1, 2), 4) == 9
    assert count_monomials((5,), 7) == 0


def test_count_monomials_zero_target_and_ones():
    for weights in ((1, 2), (3, 5, 7), (4,)):
        assert count_monomials(weights, 0) == 1
    for m in range(1, 6):
        for t in range(0, 12):
            assert count_monomials((1,) * m, t) == binomial(t + m - 1, m - 1)


def test_count_monomials_against_direct_enumeration():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 6) for _ in range(m))
        target = rng.randint(0, 20)
        direct = sum(
            1
            for exps in itertools.product(*(range(target // w + 1) for w in weights))
            if sum(e * w for e, w in zip(exps, weights)) == target
        )
        assert count_monomials(weights, target) == direct


def test_factored_power():
    fp = FactoredPower(13, 21)
    assert fp.expand() == 13**21
    assert str(fp) == "13^21"
    assert FactoredPower(4, 0).expand() == 1
    with pytest.raises(UsageError):
        FactoredPower(0, 3)
    with pytest.raises(UsageError):
        FactoredPower(2, -1)
    with pytest.raises(UsageError):
        FactoredPower(1, 5)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-str digit limit")
def test_factored_power_expansion_stops_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert len(str(FactoredPower(10, limit - 1).expand())) == limit
    with pytest.raises(ResourceBudgetError, match=f"more than {limit} decimal digits"):
        FactoredPower(10, limit).expand()
    # about 8.5 GB if it were computed; refused from the bit-length bound
    with pytest.raises(ResourceBudgetError):
        FactoredPower(19, 16134384889).expand()
