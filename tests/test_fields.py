import random

import pytest

from heartproof import fields
from heartproof.fields import ExtField, ZeroInverse


def test_field_inv_examples():
    # F_p is ExtField(p, 1), with the usual representatives
    assert ExtField(7, 1).inv(3) == 5
    assert ExtField(13, 1).inv(1) == 1
    assert ExtField(11, 1).inv(4) == 3


def test_field_inv_zero():
    with pytest.raises(ZeroInverse):
        ExtField(7, 1).inv(0)


def test_prime_field_validation():
    assert ExtField(3, 1).q == 3
    with pytest.raises(fields.NotPrime):
        ExtField(9, 1)
    with pytest.raises(fields.NotPrime):
        ExtField(1, 1)


def test_is_prime():
    assert [n for n in range(2, 40) if fields.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert fields.is_prime(2**31 - 1)
    assert not fields.is_prime(2**31 - 3)
    assert not fields.is_prime(65541)


@pytest.mark.parametrize("n, factors", [
    (3825123056546413051, (149491, 747451, 34233211)),   # psi_9 = psi_10 = psi_11
    (318665857834031151167461, (399165290221, 798330580441)),   # psi_12
])
def test_is_prime_rejects_strong_pseudoprimes(n, factors):
    assert n == factors[0] * factors[1] * (factors[2] if len(factors) > 2 else 1)
    assert not fields.is_prime(n)
    assert all(fields.is_prime(f) for f in factors)


def test_is_prime_refuses_inputs_at_the_proven_limit():
    # psi_13 is the least n the 13 bases 2..41 do not decide
    assert fields.PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="proven exact only below 3317044064679887385961981"):
        fields.is_prime(fields.PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        fields.is_prime(fields.PRIME_TEST_LIMIT + 2)
    assert fields.is_prime(3317044064679887385961813)   # the largest prime below it


def test_lowest_irreducible_pinned():
    # reproducible moduli, ascending coefficients
    assert fields.lowest_irreducible(2, 2) == [1, 1, 1]       # x^2+x+1
    assert fields.lowest_irreducible(2, 3) == [1, 1, 0, 1]    # x^3+x+1
    assert fields.lowest_irreducible(2, 4) == [1, 1, 0, 0, 1]  # x^4+x+1
    assert fields.lowest_irreducible(3, 2) == [1, 0, 1]       # x^2+1


@pytest.mark.parametrize("ell,r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_extfield_laws_exhaustive(ell, r):
    f = ExtField(ell, r)
    els = range(f.q)
    for a in els:
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("ell,r", [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_extfield_laws_sampled(ell, r):
    f = ExtField(ell, r)
    rng = random.Random(0)
    for _ in range(2000):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("ell,r", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_extfield_inverses(ell, r):
    f = ExtField(ell, r)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)
