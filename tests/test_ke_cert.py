import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selinks import (
    CaseClass,
    ScanConfig,
    UsageError,
    WeightSystem,
    bp_sufficient_ke,
    branched_cover,
    certify_cover,
    classify_case,
    euclidean_k_threshold,
    generate_theorem2_family,
    hyperbolic_k_window,
)
from selinks.ke_cert import _cover_rule, _sufficiency_in_k


def _klt_ks(base, ks):
    """The k among `ks` whose certificate passes the necessary klt
    inequality, the rule solved once for the sweep."""
    rule = _cover_rule(base)
    return [k for k in ks if certify_cover(k, base, rule=rule).necessary_klt]


def test_certificates_read_the_fano_sign():
    base = WeightSystem((1, 1, 1), 3)
    rule = _cover_rule(base)
    assert all(certify_cover(k, base, rule=rule).fano for k in range(2, 50))  # Euclidean: every k
    base = WeightSystem((1, 1, 1), 4)
    assert certify_cover(3, base).fano
    assert not certify_cover(4, base).fano  # k < l/(l-m) = 4
    assert certify_cover(5, WeightSystem((1, 1, 1, 1, 1), 5)).fano  # Calabi-Yau quintic base


def test_necessary_klt_examples():
    assert certify_cover(13, WeightSystem((1, 1, 1, 1), 4)).necessary_klt
    # left and right are k(|w| - d) + d and m/(m-1) min{d, k w_i}; covers start at k = 2
    for k, base, sides in ((2, WeightSystem((1, 1, 1), 2), (4, 3)),
                           (2, WeightSystem((1, 2, 3), 6), (6, 3))):
        cert = certify_cover(k, base)
        assert (cert.left_value, cert.right_bound) == sides
        assert not cert.necessary_klt


def test_necessary_klt_matches_euclidean_threshold():
    for base in (
        WeightSystem((1, 1, 1), 3),
        WeightSystem((1, 1, 2), 4),
        WeightSystem((1, 2, 3), 6),
    ):
        threshold = euclidean_k_threshold(base)
        assert _klt_ks(base, range(2, 40)) == list(range(threshold, 40)), base


def test_euclidean_k_threshold():
    assert euclidean_k_threshold(WeightSystem((1, 1, 1), 3)) == 3
    assert euclidean_k_threshold(WeightSystem((1, 2, 3), 6)) == 5
    assert euclidean_k_threshold(WeightSystem((1, 1, 2), 4)) == 3
    with pytest.raises(UsageError):
        euclidean_k_threshold(WeightSystem((1, 1, 1), 4))


def test_spherical_never_klt_examples():
    # the proposition: a spherical base (|w| > d) with min(w) <= (|w| - d)(m - 1)
    # fails the necessary klt inequality for every k: with
    # left = k(|w| - d) + d, (m-1) left < m min{d, k min(w)} would force both
    # d < k min(w) and k min(w) <= (m-1) k (|w| - d) < d
    for ws in (
        WeightSystem((1, 1, 1), 2),
        WeightSystem((1, 1, 2), 3),
        WeightSystem((2, 3, 5), 9),
    ):
        assert classify_case(ws) is CaseClass.SPHERICAL
        assert not _klt_ks(ws, range(2, 1001))


def test_spherical_never_klt_random_sweep():
    # the contradiction argument behind the proposition needs
    # min(w) <= (|w| - d)(m - 1); sample spherical systems from that regime
    rng = random.Random(20260809)
    seen = set()
    while len(seen) < 100:
        m = rng.choice((3, 4))
        w = tuple(sorted(rng.randint(1, 12) for _ in range(m)))
        d = rng.randint(1, sum(w) - 1)
        ws = WeightSystem(w, d)
        if classify_case(ws) is not CaseClass.SPHERICAL or (w, d) in seen:
            continue
        if min(w) > (sum(w) - d) * (m - 1):
            continue
        seen.add((w, d))
        assert not _klt_ks(ws, range(2, 1001)), (w, d)


def test_necessary_klt_spherical_boundary_case():
    # outside that regime the literal inequality can hold on a spherical
    # base: (3,4,6;12) is quasi-smooth, spherical, and passes at k in {4,5}
    ws = WeightSystem((3, 4, 6), 12)
    assert classify_case(ws) is CaseClass.SPHERICAL
    assert _klt_ks(ws, range(2, 100)) == [4, 5]


def test_bp_data_fields():
    data = bp_sufficient_ke((3, 4, 4, 4))
    assert data.exponents == (3, 4, 4, 4)
    assert data.cofactor_lcms == (4, 12, 12, 12)
    assert data.gcds == (1, 4, 4, 4)
    assert data.reciprocal_sum == Fraction(13, 12)


def test_bp_sufficient_examples():
    res = bp_sufficient_ke((3, 4, 4, 4))
    assert res.verdict
    assert res.reciprocal_sum == Fraction(13, 12)
    assert res.bound == Fraction(35, 32)

    assert bp_sufficient_ke((13, 4, 4, 4, 4)).verdict
    assert bp_sufficient_ke((5, 6, 6, 2)).verdict

    res = bp_sufficient_ke((2, 4, 4, 4))
    assert not res.verdict
    assert res.reciprocal_sum == Fraction(5, 4)
    assert res.bound == Fraction(35, 32)


def test_the_mixed_family_certifies_by_its_closed_forms():
    # the cover (2m-1, 2m, ..., 2m, 2) of (1, ..., 1, m; 2m), one per link
    # dimension 2m + 1; README ("How certificates are computed") proves from
    # these closed forms that the verdict holds for every m >= 3
    for m in range(3, 301):
        res = bp_sufficient_ke((2 * m - 1,) + (2 * m,) * (m - 1) + (2,))
        assert res.gcds == (1,) + (2 * m,) * (m - 1) + (2,), m
        assert res.limiting_witness == "1/(b[1]*b[2])", m
        assert res.reciprocal_sum == 1 + Fraction(1, 2 * m * (2 * m - 1)), m
        assert res.bound == 1 + Fraction(1, 4 * m * (m - 1)), m
        assert res.verdict, m


def test_bp_sufficient_validation():
    with pytest.raises(UsageError):
        bp_sufficient_ke((3, 4))
    with pytest.raises(UsageError):
        bp_sufficient_ke((3, 4, 1))


def test_bp_verdict_permutation_invariant():
    for a in ((3, 4, 4, 4), (5, 6, 6, 2), (2, 4, 4, 4)):
        verdicts = {bp_sufficient_ke(p).verdict for p in itertools.permutations(a)}
        assert len(verdicts) == 1


def _cofactor_gcds(a):
    """The oracle of the cofactor lcms: each C^j is the lcm of a with a_j
    sliced out, and b_j = gcd(a_j, C^j)."""
    cofactors = tuple(math.lcm(*a[:j], *a[j + 1:]) for j in range(len(a)))
    return cofactors, tuple(map(math.gcd, a, cofactors))


def _greatest_term(a, b, shift=0):
    """The oracle of the greatest term: every a_i, then every b_i b_j over
    the pairs i < j in order, listed, and the first greatest one named."""
    pairs = list(itertools.combinations(range(len(a)), 2))
    values = list(a) + [b[i] * b[j] for i, j in pairs]
    top = max(values)
    at = values.index(top)
    if at < len(a):
        return top, f"1/a[{at + shift}]"
    i, j = pairs[at - len(a)]
    return top, f"1/(b[{i + shift}]*b[{j + shift}])"


@st.composite
def tied_exponents(draw):
    """Exponent vectors drawn from a few values, so that the a_i, the b_i
    and the pair products b_i b_j tie often."""
    pool = draw(st.lists(st.integers(2, 60), min_size=1, max_size=4))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=12)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(a=tied_exponents())
@example(a=(3, 4, 4, 4))  # b = (1, 4, 4, 4): the pair (1, 2) ties (1, 3) and (2, 3)
@example(a=(12, 4, 6, 12))  # b = a: the greatest b at index 0 and again at index 3
@example(a=(3, 6, 2))  # b = a: the greatest b at index 1, the next one before it
@example(a=(4, 2, 2))  # b = (2, 2, 2): a_0 = 4 ties b_0 b_1, and the a_i win ties
def test_the_linear_terms_equal_the_list_oracles(a):
    cofactors, gcds = _cofactor_gcds(a)
    m = len(a) - 1
    top, witness = _greatest_term(a, gcds)
    bound = 1 + Fraction(m, (m - 1) * top)
    total = sum(Fraction(1, ai) for ai in a)
    assert bp_sufficient_ke(a) == (a, total, bound, cofactors, gcds, witness, 1 < total < bound)
    # a base whose Brieskorn-Pham exponents are a: w_i = d/a_i with d = lcm(a)
    d = math.lcm(*a)
    rule = _sufficiency_in_k(WeightSystem(tuple(d // ai for ai in a), d))
    assert (rule.top, rule.witness) == _greatest_term(a, gcds, shift=1)


def test_hyperbolic_k_window_examples():
    win = hyperbolic_k_window(3, 4)
    assert (win.lower, win.upper) == (Fraction(32, 11), Fraction(4))
    assert win.solutions == (3,)
    assert hyperbolic_k_window(4, 5).solutions == (4,)
    win = hyperbolic_k_window(3, 5)
    assert (win.lower, win.upper) == (Fraction(50, 23), Fraction(5, 2))
    assert win.solutions == ()
    with pytest.raises(UsageError, match="m\\+1 <= l <= 2m-1"):
        hyperbolic_k_window(3, 7)
    with pytest.raises(UsageError):
        hyperbolic_k_window(3, 2)
    with pytest.raises(UsageError, match="m must be at least 3, got 2"):
        hyperbolic_k_window(2, 3)


def test_window_matches_literal_verdicts():
    # the window is the algebraic reduction of the sufficiency inequality
    # on the family (k, l, ..., l)
    for m in range(3, 7):
        for l in range(m + 1, 2 * m):
            solutions = set(hyperbolic_k_window(m, l).solutions)
            for k in range(2, 61):
                verdict = bp_sufficient_ke((k,) + (l,) * m).verdict
                assert verdict == (k in solutions), (m, l, k)


def test_verdict_single_window_in_k():
    for m in range(3, 7):
        for l in range(m + 1, 2 * m):
            seq = [bp_sufficient_ke((k,) + (l,) * m).verdict for k in range(2, 61)]
            # no True may follow a False that follows a True
            pattern = "".join("T" if v else "F" for v in seq)
            assert "TFT" not in pattern.replace("FF", "F").replace("TT", "T")


def test_fermat_cy_threshold():
    # the cover (k, m, ..., m) of (1, ..., 1; m), gcd(k, m) = 1, at every such
    # k <= 60 for m <= 6 and within 6 of m(m - 1) for m up to 300; README
    # ("How certificates are computed") proves from these closed forms that
    # the verdict is k > m(m - 1) for every m >= 3
    for m in range(3, 301):
        threshold = m * (m - 1)
        for k in range(2, 61) if m <= 6 else range(threshold - 6, threshold + 7):
            if math.gcd(k, m) != 1:
                continue
            res = bp_sufficient_ke((k,) + (m,) * m)
            assert res.gcds == (1,) + (m,) * m, (m, k)
            assert res.limiting_witness == ("1/a[0]" if k > m * m else "1/(b[1]*b[2])"), (m, k)
            assert res.reciprocal_sum == 1 + Fraction(1, k), (m, k)
            assert res.bound == 1 + Fraction(m, (m - 1) * max(k, m * m)), (m, k)
            assert res.verdict == (k > threshold), (m, k)


def test_certify_cover_bp_route():
    cert = certify_cover(3, WeightSystem((1, 1, 1), 4))
    assert cert.bp_applicable
    assert cert.bp_sufficient
    assert cert.fano and cert.necessary_klt and cert.gc_assumed
    assert cert.left_value == Fraction(13, 12)
    assert cert.right_bound == Fraction(35, 32)


def test_certify_cover_non_bp_route():
    # base with a weight not dividing d: no Brieskorn-Pham presentation
    base = WeightSystem((1, 1, 2), 5)
    assert branched_cover(3, base).bp_exponents is None
    cert = certify_cover(3, base)
    assert not cert.bp_applicable
    assert not cert.bp_sufficient
    assert cert.left_value == Fraction(3 * (4 - 5) + 5)


def test_certified_implies_fano():
    for k in range(2, 30):
        for base in (
            WeightSystem((1, 1, 1), 3),
            WeightSystem((1, 1, 1), 4),
            WeightSystem((1, 1, 2), 4),
        ):
            cert = certify_cover(k, base)
            assert not cert.bp_sufficient or cert.fano


def test_certify_cover_agrees_with_the_separate_tests(qs_triple_corpus, literal_certificate):
    # the literal recipe evaluates the Fano sign and the necessary klt
    # inequality on their own; includes the boundary left == right, e.g. k = 2 on (1,1,1;3)
    bases = qs_triple_corpus + [WeightSystem((1, 1, 1, 1), 4), WeightSystem((1, 1, 1), 5)]
    for base in bases:
        for k in range(2, 16):
            assert certify_cover(k, base) == literal_certificate(k, base), (base, k)


@st.composite
def divisor_bases(draw):
    """Bases whose weights all divide d: Brieskorn-Pham unless a weight is d."""
    d = draw(st.integers(2, 120))
    divisors = [q for q in range(1, d + 1) if d % q == 0]
    weights = draw(st.lists(st.sampled_from(divisors), min_size=2, max_size=7))
    return WeightSystem(tuple(weights), d)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(base=divisor_bases(), k=st.integers(2, 400))
@example(base=WeightSystem((1, 1, 4), 4), k=3)  # a weight equal to d: a linear term
@example(base=WeightSystem((1, 1, 1), 3), k=6)  # k not coprime to d
@example(base=WeightSystem((1, 1, 1), 3), k=10)  # k > T = 9: k sets the bound
@example(base=WeightSystem((1, 1, 1), 2), k=3)  # S > 1 with no k passing
@example(base=WeightSystem((2, 2, 2, 5), 10), k=3)  # none passes, though k < 1/(2(S-1))
@example(base=WeightSystem((3, 4, 6), 12), k=5)  # S > 1, and k = 5 passes
@example(base=WeightSystem((1, 2, 4, 4), 16), k=3)  # S + 1/k equals the bound
def test_certify_cover_equals_the_literal_recipe(base, k, literal_certificate):
    assert certify_cover(k, base) == literal_certificate(k, base)


@st.composite
def any_bases(draw):
    """Bases with arbitrary weights, mostly not Brieskorn-Pham."""
    d = draw(st.integers(2, 120))
    weights = draw(st.lists(st.integers(1, d), min_size=2, max_size=7))
    return WeightSystem(tuple(weights), d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(base=divisor_bases() | any_bases())
@example(base=WeightSystem((1, 1, 2), 5))  # not Brieskorn-Pham: no sufficiency rule
@example(base=WeightSystem((1, 1, 4), 4))  # a weight equal to d: no sufficiency rule
@example(base=WeightSystem((1, 1, 1), 3))  # k = 3, 6, 9 share a factor with d
@example(base=WeightSystem((3, 4, 6), 12))  # likewise, on a base whose rule admits k
@example(base=WeightSystem((2, 3, 5), 7))  # k w_min crosses d between k = 3 and k = 4
def test_a_rule_solved_once_per_base_gives_the_per_record_certificate(base, literal_certificate):
    # every k in 2..3d: the k sharing a factor with d, where the sufficiency
    # rule is ignored, and the k where k w_min passes d and d becomes the least term
    rule = _cover_rule(base)
    assert rule.bp == _sufficiency_in_k(base)
    assert (rule.bp is None) == (base.bp_exponents is None)
    for k in range(2, 3 * base.degree + 1):
        cert = certify_cover(k, base, rule=rule)
        assert cert == certify_cover(k, base) == literal_certificate(k, base), k
        exponents = branched_cover(k, base).bp_exponents
        assert cert.bp_applicable == (exponents is not None)
        if exponents is not None:
            assert cert.bp_sufficient == bp_sufficient_ke(exponents).verdict
        # the integer comparisons of the two sides are the Fraction ones
        left, right = cert.left_value, cert.right_bound
        assert cert.fano == (left > (1 if cert.bp_applicable else 0))
        assert cert.bp_sufficient == (cert.bp_applicable and 1 < left < right)


def test_certify_cover_refuses_k_below_2():
    base = WeightSystem((1, 1, 1), 3)
    for k in (1, 0, -2):
        with pytest.raises(UsageError, match="at least 2"):
            certify_cover(k, base)


def test_the_rule_on_fermat_cy_bases_is_k_above_m_m_minus_1():
    for m in range(3, 11):
        rule = _sufficiency_in_k(WeightSystem((1,) * m, m))
        assert rule.lower == m * (m - 1)
        assert rule.upper is None


def test_the_rule_gives_the_literal_minimal_k():
    # 7/11/13 are the least k coprime to d above the rule's lower bound
    records = generate_theorem2_family(ScanConfig(k_bound=20))
    literal = {rec.l_or_d: rec.literal_min_k for rec in records}
    assert literal == {3: 7, 4: 11, 6: 13}
    for base in {rec.base for rec in records}:
        k = math.floor(_sufficiency_in_k(base).lower) + 1
        while math.gcd(k, base.degree) != 1:
            k += 1
        assert k == literal[base.degree], base
