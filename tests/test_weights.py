import pytest

from heartproof.weights import (
    MAX_PROFILE_Q,
    MAX_R,
    CurveParams,
    HypothesisViolated,
    NotApplicable,
    NotDivisible,
    csa_constraints,
    cyclotomic_data,
    euler_phi_prime_power,
    genus,
    h_E,
    weight_profile,
)


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
    assert w.gcd == 1 and w.support == 5 and w.genus == 12 and w.h_E == 4

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


def test_csa_constraints():
    w5 = weight_profile(CurveParams(5, 7, 1))
    assert csa_constraints(w5, 1)
    assert not csa_constraints(w5, 2)  # multiplicity 1 present
    w11 = weight_profile(CurveParams(11, 5, 1))
    assert csa_constraints(w11, 2)  # all even, 2 * 4 <= 20
    with pytest.raises(ValueError):
        csa_constraints(w5, 0)


def test_h_E():
    assert h_E(12, 7, 1) == 4
    assert h_E(4, 3, 1) == 4
    with pytest.raises(NotDivisible):
        h_E(5, 7, 1)


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
        assert w.dimension == euler_phi_prime_power(p, r) * (n - 1) // 2
        assert w.h_E == n - 1
    w = weight_profile(CurveParams(5, 3, 2))
    assert w.dimension == 12 and w.genus == 16  # they differ for r >= 2


def test_cyclotomic_data():
    cd = cyclotomic_data(3, 1)
    assert list(cd.factors[0]) == [1, 1, 1]
    assert cd.total_degree == 2
    cd = cyclotomic_data(3, 2)
    assert list(cd.factors[1]) == [1, 0, 0, 1, 0, 0, 1]
    assert list(cd.product) == [1] * 9
    cd = cyclotomic_data(5, 1)
    assert len(cd.factors[0]) - 1 == 4 == euler_phi_prime_power(5, 1)


def test_profile_table_format():
    w = weight_profile(CurveParams(5, 7, 1))
    expected = ("i, n_sigma_i\n1, 0\n2, 1\n3, 2\n4, 2\n5, 3\n6, 4\n"
                "genus 12 gcd 1 support 5\n")
    assert w.table() == expected
