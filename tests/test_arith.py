import itertools
import math
import random
import sys

import pytest

from selinks import FactoredPower, ResourceBudgetError, UsageError, count_monomials
from selinks import arith
from selinks.arith import COUNT_MONOMIALS_CELL_LIMIT, COUNT_MONOMIALS_WORK_LIMIT, check_digits


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
            assert count_monomials((1,) * m, t) == math.comb(t + m - 1, m - 1)
    with pytest.raises(UsageError, match="at least one weight"):
        count_monomials((), 3)
    with pytest.raises(UsageError, match="weights must be positive integers, got 0"):
        count_monomials((1, 0, 2), 3)
    with pytest.raises(UsageError, match="target must be non-negative, got -1"):
        count_monomials((1, 2), -1)


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


def test_count_monomials_refuses_a_table_past_the_cell_limit():
    assert count_monomials((1,), COUNT_MONOMIALS_CELL_LIMIT - 1) == 1
    with pytest.raises(ResourceBudgetError, match="table cells"):
        count_monomials((1,), COUNT_MONOMIALS_CELL_LIMIT)
    # about 10^9 cells if it were allocated; refused before the table exists
    with pytest.raises(ResourceBudgetError, match="1000000001 table cells"):
        count_monomials((1, 1, 1), 10**9)


def test_count_monomials_refuses_work_past_the_update_limit(monkeypatch):
    assert COUNT_MONOMIALS_WORK_LIMIT == 2 * 10**7
    # weights past the target leave their rows of the table untouched, so
    # the largest count the limit allows runs here in milliseconds
    assert count_monomials((1000,) * 20000, 999) == 0
    with pytest.raises(ResourceBudgetError, match="in 20001 weights makes 20001000 table updates"):
        count_monomials((1000,) * 20001, 999)
    # eighty weights 1 in degree 999999 used to count for about 10 s
    with pytest.raises(ResourceBudgetError, match="80000000 table updates"):
        count_monomials((1,) * 80, 999999)
    monkeypatch.setattr(arith, "COUNT_MONOMIALS_WORK_LIMIT", 3 * 101)
    assert count_monomials((1, 1, 1), 100) == math.comb(102, 2)
    with pytest.raises(ResourceBudgetError, match="306 table updates"):
        count_monomials((1, 1, 1), 101)


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
    # an int base and exponent, not a bool or a float
    with pytest.raises(TypeError, match="^True is not an integer$"):
        FactoredPower(2, True)
    with pytest.raises(TypeError, match="^2.0 is not an integer$"):
        FactoredPower(5, 2.0)


def test_factored_power_expansion_stops_at_the_digit_limit():
    # the default limit applies while the interpreter's is off (0)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    which = "interpreter's" if sys.get_int_max_str_digits() else "default"
    assert len(str(FactoredPower(10, limit - 1).expand())) == limit
    with pytest.raises(
        ResourceBudgetError, match=f"more than {limit} decimal digits, the {which} int-to-str limit$"
    ):
        FactoredPower(10, limit).expand()
    # about 8.5 GB if it were computed; refused from the bit-length bound
    with pytest.raises(ResourceBudgetError):
        FactoredPower(19, 16134384889).expand()


def test_the_default_digit_limit_applies_while_the_interpreter_limit_is_off(digit_limit_off):
    assert sys.get_int_max_str_digits() == 0
    limit = sys.int_info.default_max_str_digits
    assert limit == 4300
    assert len(str(FactoredPower(10, limit - 1).expand())) == limit
    assert check_digits(-(10**limit - 1), "n") == -(10**limit - 1)
    message = f"more than {limit} decimal digits, the default int-to-str limit"
    with pytest.raises(ResourceBudgetError, match=f"^10\\^{limit} has {message}$"):
        FactoredPower(10, limit).expand()
    with pytest.raises(ResourceBudgetError, match=f"^n has {message}$"):
        check_digits(10**limit, "n")
    # 3^348678441, the torsion order of the 3-fold cover of (1^10; 10), would
    # take about 69 MB; refused from the bit-length bound, at once
    with pytest.raises(ResourceBudgetError, match=message):
        FactoredPower(3, 348678441).expand()
    with pytest.raises(ResourceBudgetError, match=message):
        FactoredPower(19, 16134384889).expand()
