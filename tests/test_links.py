import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selinks import (
    CaseClass,
    ResourceBudgetError,
    UsageError,
    WeightSystem,
    branched_cover,
    classify_case,
    count_monomials,
    genus,
    milnor_orlik_betti,
    moduli_count,
    quasi_smooth_generic,
    links,
    torsion_hypothesis,
)
from selinks.arith import COUNT_MONOMIALS_CELL_LIMIT


def test_weight_system_validation():
    with pytest.raises(UsageError):
        WeightSystem((1,), 3)
    with pytest.raises(UsageError):
        WeightSystem((0, 1, 2), 3)
    with pytest.raises(UsageError):
        WeightSystem((1, 2), 0)
    # a bool is an int to gcd and sum, but not a weight or a degree
    for weights, degree in (((True, True, True), 3), ((1, 1, 1), True), ((1, True, 2), 4)):
        with pytest.raises(UsageError, match="weights and degree must be integers"):
            WeightSystem(weights, degree)


def test_weight_system_parse():
    ws = WeightSystem.parse("1,2,3;6")
    assert ws == WeightSystem((1, 2, 3), 6)
    with pytest.raises(UsageError):
        WeightSystem.parse("1,2,3")
    with pytest.raises(UsageError):
        WeightSystem.parse("1,x;6")
    with pytest.raises(UsageError):
        WeightSystem.parse("0,1,2;3")


def test_canonical_sorts_weights():
    assert WeightSystem((3, 1, 2), 6).canonical().weights == (1, 2, 3)


def test_classify_case():
    assert classify_case(WeightSystem((1, 2, 3), 6)) is CaseClass.EUCLIDEAN
    assert classify_case(WeightSystem((1, 1, 1), 2)) is CaseClass.SPHERICAL
    assert classify_case(WeightSystem((1, 1, 1), 4)) is CaseClass.HYPERBOLIC


def test_classify_case_permutation_invariant():
    for perm in itertools.permutations((1, 2, 3)):
        assert classify_case(WeightSystem(perm, 6)) is CaseClass.EUCLIDEAN


def test_branched_cover_cubic():
    cov = branched_cover(4, WeightSystem((1, 1, 1), 3))
    assert cov.cover == WeightSystem((3, 4, 4, 4), 12)
    assert cov.bp_exponents == (4, 3, 3, 3)
    assert torsion_hypothesis(4, cov.base)


def test_branched_cover_d6():
    cov = branched_cover(5, WeightSystem((1, 2, 3), 6))
    assert cov.cover == WeightSystem((6, 5, 10, 15), 30)
    assert cov.bp_exponents == (5, 6, 3, 2)


@pytest.mark.parametrize("m,k", [(3, 2), (3, 5), (4, 3), (5, 7)])
def test_branched_cover_fermat_cy(m, k):
    cov = branched_cover(k, WeightSystem((1,) * m, m))
    assert cov.cover == WeightSystem((m,) + (k,) * m, m * k)


def test_branched_cover_invariants():
    import math

    for k, weights, d in [(4, (1, 1, 1), 3), (5, (1, 2, 3), 6), (7, (1, 1, 3), 6)]:
        base = WeightSystem(weights, d)
        cov = branched_cover(k, base)
        g = math.gcd(k, d)
        assert cov.cover.degree % k == 0
        assert cov.cover.degree % (d // g) == 0
        if cov.bp_exponents is not None:
            for a, w in zip(cov.bp_exponents, cov.cover.weights):
                assert a * w == cov.cover.degree


def test_branched_cover_rejects_small_k():
    with pytest.raises(UsageError):
        branched_cover(1, WeightSystem((1, 1, 1), 3))


def test_branched_cover_non_coprime_flagged():
    cov = branched_cover(4, WeightSystem((1, 2, 3), 6))
    assert not torsion_hypothesis(4, cov.base)
    assert cov.bp_exponents is None
    assert cov.cover == WeightSystem((3, 2, 4, 6), 12)


def test_branched_cover_linear_weight_has_no_bp_exponents():
    # w_3 = d: d / w_3 = 1 is a linear term, not a Brieskorn-Pham exponent
    cov = branched_cover(3, WeightSystem((1, 1, 4), 4))
    assert torsion_hypothesis(3, cov.base)
    assert cov.bp_exponents is None
    assert cov.cover == WeightSystem((4, 3, 3, 12), 12)


def test_quasi_smooth_examples():
    assert quasi_smooth_generic(WeightSystem((1, 2, 3), 6))
    assert quasi_smooth_generic(WeightSystem((1, 1, 1), 3))
    assert not quasi_smooth_generic(WeightSystem((1, 2, 2), 5))


def test_quasi_smooth_implies_full_degree_monomial(qs_triple_corpus):
    for ws in qs_triple_corpus:
        assert count_monomials(ws.weights, ws.degree) >= 1


def test_torsion_hypothesis():
    assert torsion_hypothesis(5, WeightSystem((1, 2, 3), 6))
    assert not torsion_hypothesis(3, WeightSystem((1, 2, 3), 6))
    assert torsion_hypothesis(2, WeightSystem((1, 1, 1), 3))
    with pytest.raises(UsageError):
        torsion_hypothesis(1, WeightSystem((1, 1, 1), 3))


def test_weight_system_divides_out_common_factor():
    # (5,10,15;30) is (1,2,3;6): the same polynomials, the same link
    base = WeightSystem((1, 2, 3), 6)
    scaled = WeightSystem((5, 10, 15), 30)
    assert scaled == base
    assert (scaled.weights, scaled.degree) == ((1, 2, 3), 6)
    assert WeightSystem((25, 50, 75), 150) == base
    assert branched_cover(5, scaled) == branched_cover(5, base)
    assert WeightSystem.parse("2,2,2;6") == WeightSystem((1, 1, 1), 3)


def test_reduced_system_is_kept_as_given():
    ws = WeightSystem((3, 1, 2), 6)
    assert (ws.weights, ws.degree) == ((3, 1, 2), 6)
    # gcd(w, d) = 1 although the weights share the factor 2
    ws = WeightSystem((2, 2, 2), 3)
    assert (ws.weights, ws.degree) == ((2, 2, 2), 3)


@pytest.mark.parametrize(
    "weights, degree",
    [((1.5, 1, 1), 3), (("2", "1", "1"), 4), ((1, 1, 1), 3.0), ((Fraction(1), 1, 1), 3)],
)
def test_weight_system_refuses_non_integers(weights, degree):
    with pytest.raises(UsageError, match="must be integers"):
        WeightSystem(weights, degree)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 9), min_size=3, max_size=4),
    st.integers(2, 30),
    st.integers(2, 6),
)
def test_scaling_gives_the_same_system_and_invariants(weights, degree, g):
    base = WeightSystem(tuple(weights), degree)
    scaled = WeightSystem(tuple(g * w for w in weights), g * degree)
    assert scaled == base
    assert quasi_smooth_generic(scaled) == quasi_smooth_generic(base)
    # the monomial counts do not see the scale either
    w, d = base.weights, base.degree
    assert count_monomials(tuple(g * x for x in w), g * d) == count_monomials(w, d)
    if quasi_smooth_generic(base):
        assert milnor_orlik_betti(scaled) == milnor_orlik_betti(base)
        assert moduli_count(scaled) == moduli_count(base)
        if base.m == 3:
            assert genus(scaled) == genus(base)


def _per_ratio_hypothesis(k, ws):
    """gcd(k, u_i) = 1 for every u_i / v_i = d / w_i in lowest terms."""
    return all(math.gcd(k, ws.degree // math.gcd(ws.degree, w)) == 1 for w in ws.weights)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=3, max_size=4),
    st.integers(2, 40),
    st.integers(2, 39),
)
def test_torsion_hypothesis_is_the_per_ratio_rule(weights, degree, k):
    ws = WeightSystem(tuple(weights), degree)
    assert math.gcd(ws.degree, *ws.weights) == 1
    assert torsion_hypothesis(k, ws) == _per_ratio_hypothesis(k, ws)


def quasi_smooth_all_subsets(ws):
    """The subset criterion literally, over every nonempty index set."""
    w, d, m = ws.weights, ws.degree, ws.m
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            wi = [w[i] for i in subset]
            if count_monomials(wi, d):
                continue
            outside = [j for j in range(m) if j not in subset]
            if sum(1 for j in outside if d >= w[j] and count_monomials(wi, d - w[j])) < size:
                return False
    return True


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=7), st.integers(1, 60))
def test_quasi_smooth_equals_the_all_subsets_test(weights, degree):
    ws = WeightSystem(tuple(weights), degree)
    assert quasi_smooth_generic(ws) == quasi_smooth_all_subsets(ws)


@st.composite
def invertible_systems(draw):
    """The weights of a sum of chain blocks z_1^{a_1} z_2 + ... + z_r^{a_r}.

    Such a polynomial has an isolated singularity, and every chain variable
    but the last has w_i not dividing d, so these systems reach the subset
    stage that random systems rarely pass.
    """
    qs = []  # weights as fractions of d
    for _ in range(draw(st.integers(2, 3))):
        exponents = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        q = Fraction(1, exponents[-1])
        qs.append(q)
        for a in reversed(exponents[:-1]):
            q = (1 - q) / a
            qs.append(q)
    d = math.lcm(*(q.denominator for q in qs))
    return WeightSystem(tuple(int(q * d) for q in qs), d)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(invertible_systems())
def test_invertible_systems_are_quasi_smooth(ws):
    assert quasi_smooth_generic(ws)
    assert quasi_smooth_all_subsets(ws)


@st.composite
def repeated_block_systems(draw):
    """One or two chain blocks z_1^{a_1} z_2 + ... + z_r^{a_r}, each repeated
    one to three times (m <= 9), sometimes with one weight perturbed or one
    weight added.

    Repeated weights that do not divide d reach the walk over sets of
    distinct weights, where the index set taking every index of a set's
    weights is the one that decides.
    """
    qs = []  # weights as fractions of d
    for _ in range(draw(st.integers(1, 2))):
        exponents = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        block = [Fraction(1, exponents[-1])]
        for a in reversed(exponents[:-1]):
            block.append((1 - block[-1]) / a)
        qs += block * draw(st.integers(1, 3))
    qs = qs[:9]
    d = math.lcm(*(q.denominator for q in qs))
    weights = [int(q * d) for q in qs]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(weights) - 1))
        weights[i] = max(1, weights[i] + draw(st.integers(-2, 2)))
    if len(weights) < 2 or (len(weights) < 9 and draw(st.booleans())):
        weights.append(draw(st.integers(1, d)))
    return WeightSystem(tuple(weights), d)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(repeated_block_systems())
def test_the_distinct_weight_walk_equals_the_all_subsets_test(ws):
    assert quasi_smooth_generic(ws) == quasi_smooth_all_subsets(ws)


def test_quasi_smoothness_refuses_a_bitset_past_the_cell_limit():
    # two weights 2 do not divide an odd d, so the walk traces the degrees up
    # to d in a bitset of d + 1 cells; the weights 1 are its outside hits
    at_limit = COUNT_MONOMIALS_CELL_LIMIT - 1
    assert quasi_smooth_generic(WeightSystem((1, 1, 2, 2), at_limit))
    assert not quasi_smooth_generic(WeightSystem((1, 2, 2), at_limit))
    with pytest.raises(ResourceBudgetError, match="1000002 bitset cells"):
        quasi_smooth_generic(WeightSystem((1, 2, 2), at_limit + 2))
    # about 10^8 cells if it were allocated; refused before the bitset exists
    with pytest.raises(ResourceBudgetError, match="100000002 bitset cells"):
        quasi_smooth_generic(WeightSystem((1, 2, 4), 100000001))


def _small_degree_family(n):
    """n distinct weights 37, 38, ... above 73/2 and n weights 73, degree 73.

    No two of the distinct weights fit in 73, and the weights 73 are hits
    for every set of them, so the walk visits all 2^n - 1 sets and each
    costs one shift and two AND-popcounts (multiplicities 1 and n) of a
    74-cell bitset, charged at 2^16 cells each.
    """
    return WeightSystem(tuple(range(37, 37 + n)) + (73,) * n, 73)


def _large_degree_family(k):
    """k weights 1 and the even weights 2, 4, ..., 2k at the odd degree 997921.

    No set of even weights reaches an odd d, and each reaches d - 1, so the
    k weights 1 are hits for every set and the walk visits all 2^k - 1 sets.
    """
    return WeightSystem((1,) * k + tuple(range(2, 2 * k + 1, 2)), 997921)


def test_the_walk_charges_each_bitset_step_as_it_goes(monkeypatch):
    charge = 3 * 2**16 * (2**8 - 1)  # 255 sets of three steps each
    monkeypatch.setattr(links, "QUASI_SMOOTH_WALK_CELL_LIMIT", charge)
    assert quasi_smooth_generic(_small_degree_family(8))
    monkeypatch.setattr(links, "QUASI_SMOOTH_WALK_CELL_LIMIT", charge - 1)
    with pytest.raises(ResourceBudgetError, match="by its set 255 of distinct weights"):
        quasi_smooth_generic(_small_degree_family(8))


def test_the_subset_walk_is_refused_past_its_cell_limit():
    # both families are quasi-smooth and exponential in the walk: the largest
    # member within the limit is decided, the next one is refused
    assert links.QUASI_SMOOTH_WALK_CELL_LIMIT == 15 * 10**9
    assert 3 * 2**16 * (2**16 - 1) <= 15 * 10**9 < 3 * 2**16 * (2**17 - 1)
    assert quasi_smooth_generic(_small_degree_family(16))
    with pytest.raises(ResourceBudgetError, match="by its set 76294 of distinct weights"):
        quasi_smooth_generic(_small_degree_family(17))
    assert quasi_smooth_generic(_large_degree_family(9))
    with pytest.raises(ResourceBudgetError, match=r"the quasi-smoothness test of \(1,"):
        quasi_smooth_generic(_large_degree_family(10))


def test_the_walk_refuses_a_path_past_its_cell_limit():
    # n + 1 distinct weights above d/2 and n weights d: every set of at most
    # n distinct weights passes on the n hits of the weights d, so the walk
    # goes n + 1 sets deep and holds a bitset of 10^6 cells per level
    def deep(n):
        return WeightSystem(tuple(range(500000, 500001 + n)) + (999999,) * n, 999999)

    assert links.QUASI_SMOOTH_PATH_CELL_LIMIT == 10**8
    assert not quasi_smooth_generic(deep(100))
    with pytest.raises(ResourceBudgetError, match="holds 101 bitsets of 1000000 cells"):
        quasi_smooth_generic(deep(101))


def test_the_singleton_pass_looks_up_its_few_candidates():
    # a weight x > d/2 has only the candidates y = d and y = d - x for
    # x | d - y, fewer than there are weights, so it looks them up: beside
    # 41, 60 finds 41; beside 61 and 62, none of 60, 61 and 62 finds one
    assert quasi_smooth_generic(WeightSystem((1, 41, 60), 101))
    assert not quasi_smooth_generic(WeightSystem((1, 60, 61, 62), 101))
    for weights in ((1, 41, 60), (1, 60, 61, 62)):
        ws = WeightSystem(weights, 101)
        assert quasi_smooth_generic(ws) == quasi_smooth_all_subsets(ws)
    # 8,000 distinct weights above d/2 and the weight d at the prime d: every
    # singleton passes by y = d, and the walk's bitset is refused; scanning
    # every weight for each weight took seconds before that
    d = 1000003
    ws = WeightSystem(tuple(range(d // 2 + 1, d // 2 + 8001)) + (d,), d)
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="1000004 bitset cells"):
        quasi_smooth_generic(ws)
    assert time.perf_counter() - start < 2
