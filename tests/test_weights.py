import pytest

from heartproof.weights import (
    MAX_PROFILE_Q,
    MAX_R,
    CurveParams,
    HypothesisViolated,
    NotApplicable,
    genus,
    weight_profile,
)

from cyclotomic import cyclotomic_poly_prime_power, poly_product


def test_genus_examples():
    assert genus(CurveParams(5, 3, 1)) == 4
    assert genus(CurveParams(6, 3, 1)) == 4
    assert genus(CurveParams(5, 7, 1)) == 12


def test_standing_hypothesis():
    with pytest.raises(HypothesisViolated):
        CurveParams(10, 5, 2)  # 5 | 10 but 25 does not divide 10
    CurveParams(25, 5, 2)  # q | n is fine
    with pytest.raises(ValueError):
        CurveParams(5, 4, 1)
    with pytest.raises(ValueError):
        CurveParams(5, 2, 1)
    assert CurveParams(5, 3, MAX_R).q == 3**MAX_R
    with pytest.raises(ValueError, match=f"r = {MAX_R + 1} is above the limit MAX_R = {MAX_R}"):
        CurveParams(5, 3, MAX_R + 1)


def test_profile_examples():
    w = weight_profile(CurveParams(5, 7, 1))
    assert [m for _, m in w.mults] == [0, 1, 2, 2, 3, 4]
    assert w.gcd == 1 and w.support == 5 and w.genus == 12

    w = weight_profile(CurveParams(11, 5, 1))
    assert [m for _, m in w.mults] == [2, 4, 6, 8]
    assert w.gcd == 2

    w = weight_profile(CurveParams(5, 3, 1))
    assert [m for _, m in w.mults] == [1, 3]
    assert w.gcd == 1 and w.support == 2 and 2 * w.support >= 3 + 1


def test_profile_size_limit():
    # 100003 is the least prime above the limit
    with pytest.raises(ValueError, match=f"q = 100003 is above the limit "
                                         f"MAX_PROFILE_Q = {MAX_PROFILE_Q}"):
        weight_profile(CurveParams(5, 100003, 1))


def test_profile_not_applicable():
    with pytest.raises(NotApplicable):
        weight_profile(CurveParams(7, 7, 1))


def test_h_E_vs_heart_dim_algebra():
    # 2 * genus / (p - 1) = n - 1 whenever p does not divide n, r = 1
    for n in range(5, 40):
        for p in (3, 5, 7, 11, 13):
            if n % p == 0:
                continue
            assert 2 * genus(CurveParams(n, p, 1)) // (p - 1) == n - 1


def test_dimension_sum_identity():
    # sum of multiplicities = phi(q)(n-1)/2; equals the curve genus iff r = 1
    for n, p, r in [(5, 3, 2), (7, 3, 2), (8, 3, 3), (11, 5, 2)]:
        w = weight_profile(CurveParams(n, p, r))
        # phi(q) = (p - 1) p^(r-1), so the cyclotomic rank 2 * dimension / phi(q) is n - 1
        assert sum(m for _, m in w.mults) == (p - 1) * p ** (r - 1) * (n - 1) // 2
    w = weight_profile(CurveParams(5, 3, 2))
    assert sum(m for _, m in w.mults) == 12 and w.genus == 16  # they differ for r >= 2


def test_cyclotomic_data():
    assert cyclotomic_poly_prime_power(3, 1) == [1, 1, 1]
    assert cyclotomic_poly_prime_power(3, 2) == [1, 0, 0, 1, 0, 0, 1]
    assert poly_product([cyclotomic_poly_prime_power(3, i) for i in (1, 2)]) == [1] * 9
    assert len(cyclotomic_poly_prime_power(5, 1)) - 1 == 4


def test_profile_table_format():
    w = weight_profile(CurveParams(5, 7, 1))
    expected = ("i, n_sigma_i\n1, 0\n2, 1\n3, 2\n4, 2\n5, 3\n6, 4\n"
                "genus 12 gcd 1 support 5\n")
    assert w.table() == expected
