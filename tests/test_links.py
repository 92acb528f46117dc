import itertools

import pytest

from selinks import (
    CaseClass,
    UsageError,
    WeightSystem,
    branched_cover,
    classify_case,
    count_monomials,
    normalize_cover,
    quasi_smooth_generic,
    torsion_hypothesis,
)


def test_weight_system_validation():
    with pytest.raises(UsageError):
        WeightSystem((1,), 3)
    with pytest.raises(UsageError):
        WeightSystem((0, 1, 2), 3)
    with pytest.raises(UsageError):
        WeightSystem((1, 2), 0)


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
    assert cov.coprime


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
    assert not cov.coprime
    assert cov.bp_exponents is None
    assert cov.cover == WeightSystem((3, 2, 4, 6), 12)


def test_branched_cover_linear_weight_has_no_bp_exponents():
    # w_3 = d: d / w_3 = 1 is a linear term, not a Brieskorn-Pham exponent
    cov = branched_cover(3, WeightSystem((1, 1, 4), 4))
    assert cov.coprime
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


def test_normalize_cover_identity_when_coprime():
    base = WeightSystem((1, 2, 3), 6)
    assert normalize_cover(5, base) == (5, base)
    base = WeightSystem((1, 1, 1), 3)
    assert normalize_cover(4, base) == (4, base)


def test_normalize_cover_divides_out_common_factor():
    # scaling a valid base by g keeps the u_i, so normalization undoes it
    base = WeightSystem((1, 2, 3), 6)
    scaled = WeightSystem((5, 10, 15), 30)
    assert normalize_cover(5, scaled) == (5, base)
    twice_scaled = WeightSystem((25, 50, 75), 150)
    assert normalize_cover(5, twice_scaled) == (5, base)


def test_normalize_cover_refuses_without_hypothesis():
    with pytest.raises(UsageError, match="u_1"):
        normalize_cover(3, WeightSystem((1, 2, 3), 6))
