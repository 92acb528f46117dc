"""The closed-form Euclidean enumeration against two slower oracles.

`survey._euclidean_candidates` walks the m - 2 smallest weights and takes
the two largest from closed forms of the singleton tests.  Two oracles
check it: the literal loop over every sorted weight vector up to the bound
(at small bounds), and the divisor rule it replaced, which takes only the
largest weight from divisors (at the bounds of the benchmark and of Reid's
95).
"""

import bisect
import itertools
import math
from typing import Iterable, Iterator

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


def _quasi_smooth_systems(candidates: Iterable[tuple[int, ...]]) -> list[WeightSystem]:
    systems = []
    for weights in candidates:
        if math.gcd(*weights) != 1:
            continue
        ws = WeightSystem(weights, sum(weights))
        if quasi_smooth_generic(ws):
            systems.append(ws)
    return systems


def euclidean_systems_cube(m: int, bound: int) -> list[WeightSystem]:
    """Every sorted w_1 <= ... <= w_m <= bound with gcd 1 and a quasi-smooth
    member of (w; |w|), in lexicographic order: the loop the divisor rule
    replaced."""
    return _quasi_smooth_systems(
        itertools.combinations_with_replacement(range(1, bound + 1), m)
    )


def divisor_rule_candidates(m: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Every sorted prefix w_1 <= ... <= w_{m-1} <= bound, with w_m taken from
    the divisors in [w_{m-1}, bound] of S = w_1 + ... + w_{m-1} and of each
    S - w_j: the singleton test on the largest weight alone.  It has no
    budget: it walks C(bound + m - 2, m - 1) prefixes."""
    divisors: list[list[int]] = [[] for _ in range((m - 1) * bound + 1)]
    for q in range(1, bound + 1):
        for n in range(q, len(divisors), q):
            divisors[n].append(q)
    for prefix in itertools.combinations_with_replacement(range(1, bound + 1), m - 1):
        s = sum(prefix)
        last = set()
        for n in {s, *(s - w for w in prefix)}:
            divs = divisors[n]
            last.update(divs[bisect.bisect_left(divs, prefix[-1]):])
        for w_m in sorted(last):
            yield prefix + (w_m,)


def test_three_variables_equal_the_cube_loop_at_every_bound():
    for bound in range(1, 41):
        assert _euclidean_systems(3, bound) == euclidean_systems_cube(3, bound), bound


def test_four_variables_equal_the_quartic_loop_up_to_bound_20():
    for bound in range(1, 21):
        assert _euclidean_systems(4, bound) == euclidean_systems_cube(4, bound), bound


# at 1414 the divisor rule walks C(1415, 2) > 10^6 prefixes, in about 5 s
@pytest.mark.parametrize("m, bound", [(3, 150), (3, 300), (3, 400), (3, 1414), (4, 33), (4, 42)])
def test_the_closed_forms_equal_the_divisor_rule(m, bound):
    expected = _quasi_smooth_systems(divisor_rule_candidates(m, bound))
    assert _euclidean_systems(m, bound) == expected
    if m == 3:  # the three classes, whatever the bound past 6
        assert [ws.weights for ws in expected] == [(1, 1, 1), (1, 1, 2), (1, 2, 3)]


def test_the_closed_forms_keep_few_candidates_at_the_benchmark_bound():
    # the divisor rule kept 16,950 triples at bound 150, 10,287 of them with
    # gcd 1; the closed forms keep 275, and only the three classes have gcd 1
    candidates = list(_euclidean_candidates(3, 150))
    assert len(candidates) == 275
    assert len(candidates) < sum(1 for _ in divisor_rule_candidates(3, 150)) == 16_950
    assert [w for w in candidates if math.gcd(*w) == 1] == [(1, 1, 1), (1, 1, 2), (1, 2, 3)]


def _dropped_by_the_divisor_rule(m: int, bound: int) -> list[tuple[int, ...]]:
    kept = set(_euclidean_candidates(m, bound))
    every = itertools.combinations_with_replacement(range(1, bound + 1), m)
    return [weights for weights in every if weights not in kept]


def test_no_triple_the_divisor_rule_drops_is_quasi_smooth():
    dropped = _dropped_by_the_divisor_rule(3, 60)
    assert len(dropped) == 37_710
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
    # a prefix costs 1 + 42 steps in three variables and 1 + 252 in four, so
    # bound 23,255 (999,965 steps) and 88 (3,916 pairs, 990,748 steps) are
    # the last accepted
    assert COUNT_MONOMIALS_CELL_LIMIT == 10**6
    for m, bound, steps in ((3, 23_255, 1_000_008), (4, 88, 1_013_265)):
        assert next(_euclidean_candidates(m, bound)) == (1,) * m
        with pytest.raises(ResourceBudgetError, match=f"weight prefixes in {steps} steps, more"):
            next(_euclidean_candidates(m, bound + 1))
    with pytest.raises(ResourceBudgetError, match="weight prefixes in 43000000 steps"):
        scan_euclidean_classification(ScanConfig(weight_bound=10**6))
