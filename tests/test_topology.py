import itertools
import math

import pytest

from selinks import (
    IntegrityError,
    ResourceBudgetError,
    TorsionOrder,
    UsageError,
    WeightSystem,
    betti_bp_oracle,
    fermat_betti,
    fermat_cy_betti,
    genus,
    genus_one_criterion,
    milnor_orlik_betti,
    reduced_ratios,
    torsion_order,
)


def bp_weight_system(a):
    big_l = math.lcm(*a)
    return WeightSystem(tuple(big_l // ai for ai in a), big_l)


def test_reduced_ratios():
    assert reduced_ratios(WeightSystem((1, 2, 3), 6)) == ((6, 1), (3, 1), (2, 1))
    assert reduced_ratios(WeightSystem((1, 2, 2), 5)) == ((5, 1), (5, 2), (5, 2))


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
    assert fermat_cy_betti(3) == 2
    assert fermat_cy_betti(4) == 21
    assert fermat_cy_betti(5) == 204
    for m in range(3, 8):
        assert fermat_cy_betti(m) == milnor_orlik_betti(WeightSystem((1,) * m, m))
    with pytest.raises(UsageError):
        fermat_cy_betti(2)


def test_fermat_betti():
    assert fermat_betti(3, 4) == 6  # (l-2)(l-1)
    assert fermat_betti(3, 5) == 12
    assert fermat_betti(4, 5) == 52
    for m in range(3, 6):
        for l in range(2, 8):
            assert fermat_betti(m, l) == milnor_orlik_betti(WeightSystem((1,) * m, l))
    for l in range(2, 10):
        assert fermat_betti(3, l) == (l - 2) * (l - 1)


def test_genus_values():
    assert genus(WeightSystem((1, 2, 3), 6)) == 1
    assert genus(WeightSystem((1, 1, 1), 4)) == 3
    assert genus(WeightSystem((1, 1, 2), 4)) == 1
    assert genus(WeightSystem((1, 1, 3), 6)) == 2
    for d in range(3, 8):
        assert genus(WeightSystem((1, 1, 1), d)) == (d - 1) * (d - 2) // 2


def test_genus_errors():
    with pytest.raises(UsageError):
        genus(WeightSystem((1, 1, 1, 1), 4))
    with pytest.raises(IntegrityError):
        genus(WeightSystem((2, 3, 4), 9))


def test_genus_one_criterion():
    assert genus_one_criterion(WeightSystem((1, 2, 3), 6))
    # hypotheses hold verbatim for (1,1,2;4): |w| = d, w_i | d, pairwise gcds 1
    assert genus_one_criterion(WeightSystem((1, 1, 2), 4))
    # sufficient but not necessary: (1,2,4;8) has genus 1 with |w| != d
    ws = WeightSystem((1, 2, 4), 8)
    assert not genus_one_criterion(ws)
    assert genus(ws) == 1
    assert not genus_one_criterion(WeightSystem((1, 1, 1), 4))


def test_genus_one_criterion_implies_genus_one(qs_triple_corpus):
    for ws in qs_triple_corpus:
        if genus_one_criterion(ws):
            assert genus(ws) == 1, str(ws)


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
    with pytest.raises(UsageError, match="u_1"):
        torsion_order(3, WeightSystem((1, 2, 3), 6))


def test_torsion_order_stays_factored():
    t = TorsionOrder(21, 204)
    assert str(t) == "21^204"
    assert len(str(t.expand())) > 200
    with pytest.raises(UsageError):
        TorsionOrder(1, 5)
