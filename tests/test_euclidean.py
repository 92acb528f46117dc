"""The divisor-driven Euclidean enumeration against the literal O(W^m) loop.

`survey._euclidean_candidates` takes the largest weight only from the
divisors of S and of S - w_j (S the sum of the other weights).  The oracle
below tries every sorted weight vector up to the bound instead.
"""

import itertools
import math

import pytest

from selinks import (
    ResourceBudgetError,
    ScanConfig,
    WeightSystem,
    quasi_smooth_generic,
    scan_euclidean_classification,
)
from selinks.arith import COUNT_MONOMIALS_CELL_LIMIT
from selinks.survey import _euclidean_candidates, _euclidean_systems


def euclidean_systems_cube(m: int, bound: int) -> list[WeightSystem]:
    """Every sorted w_1 <= ... <= w_m <= bound with gcd 1 and a quasi-smooth
    member of (w; |w|), in lexicographic order: the loop the divisor rule
    replaced."""
    systems = []
    for weights in itertools.combinations_with_replacement(range(1, bound + 1), m):
        if math.gcd(*weights) != 1:
            continue
        ws = WeightSystem(weights, sum(weights))
        if quasi_smooth_generic(ws):
            systems.append(ws)
    return systems


def test_three_variables_equal_the_cube_loop_at_every_bound():
    for bound in range(1, 41):
        assert _euclidean_systems(3, bound) == euclidean_systems_cube(3, bound), bound


def test_four_variables_equal_the_quartic_loop_up_to_bound_20():
    for bound in range(1, 21):
        assert _euclidean_systems(4, bound) == euclidean_systems_cube(4, bound), bound


def _dropped_by_the_divisor_rule(m: int, bound: int) -> list[tuple[int, ...]]:
    kept = set(_euclidean_candidates(m, bound))
    every = itertools.combinations_with_replacement(range(1, bound + 1), m)
    return [weights for weights in every if weights not in kept]


def test_no_triple_the_divisor_rule_drops_is_quasi_smooth():
    dropped = _dropped_by_the_divisor_rule(3, 60)
    assert len(dropped) == 35_090
    assert not any(quasi_smooth_generic(WeightSystem(w, sum(w))) for w in dropped)


def test_no_quadruple_the_divisor_rule_drops_is_quasi_smooth():
    dropped = _dropped_by_the_divisor_rule(4, 24)
    assert dropped
    assert not any(quasi_smooth_generic(WeightSystem(w, sum(w))) for w in dropped)


def test_four_variables_give_reids_95_weighted_k3_classes():
    # Reid's list of the 95 families of weighted K3 hypersurfaces (Yonemura,
    # Tohoku Math. J. 42 (1990)); the largest weight of any of them is 33
    systems = _euclidean_systems(4, 66)
    assert len(systems) == 95
    assert systems == _euclidean_systems(4, 42)
    assert max(ws.degree for ws in systems) == 66
    names = {str(ws) for ws in systems}
    for known in ("(1,1,1,1;4)", "(1,1,1,3;6)", "(1,1,4,6;12)", "(1,6,14,21;42)",
                  "(3,3,4,5;15)", "(5,6,22,33;66)"):
        assert known in names


def test_the_prefix_walk_is_refused_past_the_cell_limit():
    # C(1414, 2) = 998,991 sorted pairs up to 1413, C(1415, 2) = 1,000,405 up
    # to 1414; in four variables C(182, 3) = 988,260 triples up to 180
    assert COUNT_MONOMIALS_CELL_LIMIT == 10**6
    for m, bound in ((3, 1413), (4, 180)):
        assert math.comb(bound + m - 2, m - 1) <= COUNT_MONOMIALS_CELL_LIMIT
        assert next(_euclidean_candidates(m, bound)) == (1,) * m
        with pytest.raises(ResourceBudgetError, match=r"sorted weight prefixes, more than"):
            next(_euclidean_candidates(m, bound + 1))
    with pytest.raises(ResourceBudgetError, match="walks 500000500000 sorted weight prefixes"):
        scan_euclidean_classification(ScanConfig(weight_bound=10**6))
    # the benchmark's bound and the bound of Reid's 95 stay well inside
    assert math.comb(151, 2) == 11_325 and math.comb(68, 3) == 50_116
