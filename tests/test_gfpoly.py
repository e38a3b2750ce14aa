import random

import pytest

from heartproof import gfpoly


def test_mul_divmod_roundtrip():
    rng = random.Random(0)
    for _ in range(80):
        p = rng.choice([2, 3, 5, 7, 13])
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [rng.randrange(1, p)]
        g = [rng.randrange(p) for _ in range(rng.randrange(0, 6))] + [rng.randrange(1, p)]
        q, r = gfpoly.quo(f, g, p), gfpoly.rem(f, g, p)
        assert gfpoly.sub(gfpoly.reduce(f, p), r, p) == gfpoly.mul(q, g, p)
        assert gfpoly.degree(r) < gfpoly.degree(g)


def test_gcd_divides_both():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        f = [rng.randrange(p) for _ in range(5)] + [1]
        g = [rng.randrange(p) for _ in range(4)] + [1]
        d = gfpoly.gcd(f, g, p)
        assert not gfpoly.rem(f, d, p)
        assert not gfpoly.rem(g, d, p)


def test_factor_degrees_examples():
    # x^5 - x - 1 = x^5 + x + 1 over F_2 splits as (deg 2)(deg 3)
    assert gfpoly.factor_degrees([1, 1, 0, 0, 0, 1], 2) == [2, 3]
    assert gfpoly.factor_degrees([1, 0, 1], 3) == [2]
    assert gfpoly.factor_degrees([1, 0, 1], 5) == [1, 1]


def test_is_irreducible():
    assert gfpoly.is_irreducible([1, 1, 1], 2)       # x^2+x+1
    assert not gfpoly.is_irreducible([1, 0, 1], 2)   # (x+1)^2
    assert gfpoly.is_irreducible([1, 0, 1], 3)       # x^2+1 over F_3
    assert not gfpoly.is_irreducible([1, 0, 1], 5)


def test_squarefree_part_pth_powers():
    # (x+1)^3 over F_3 has zero derivative; the squarefree part is x+1
    cube = gfpoly.mul(gfpoly.mul([1, 1], [1, 1], 3), [1, 1], 3)
    assert gfpoly.squarefree_part(cube, 3) == [1, 1]


def test_factor_squarefree_reconstructs():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 13])
        f = [rng.randrange(p) for _ in range(rng.randrange(2, 9))] + [1]
        sf = gfpoly.squarefree_part(f, p)
        if gfpoly.degree(sf) == 0:
            continue
        factors = gfpoly.factor_squarefree(sf, p)
        prod = [1]
        for g in factors:
            prod = gfpoly.mul(prod, g, p)
            d = gfpoly.degree(g)
            # irreducible over F_p: x^(p^d) = x mod g and no smaller power works
            assert gfpoly.pow_mod([0, 1], p**d, g, p) == gfpoly.rem([0, 1], g, p)
            for e in range(1, d):
                diff = gfpoly.sub(gfpoly.pow_mod([0, 1], p**e, g, p), [0, 1], p)
                assert gfpoly.degree(gfpoly.gcd(diff, g, p)) == 0
        assert prod == gfpoly.monic(sf, p)


def test_factor_deterministic_given_seed():
    # the sorted factors do not depend on the equal-degree splitting's
    # draws: seven linear factors and two quadratic ones over F_11
    factors = sorted([[-a % 11, 1] for a in range(1, 8)] + [[1, 0, 1], [3, 0, 1]])
    f = [1]
    for g in factors:
        f = gfpoly.mul(f, g, 11)
    assert gfpoly.factor_squarefree(f, 11) == factors
    for seed in range(1, 6):
        rng = random.Random(seed)
        split = [h for g, d in gfpoly.distinct_degree(f, 11)
                 for h in gfpoly._split_equal_degree(g, d, 11, rng)]
        assert sorted(split) == factors


def test_even_characteristic_edf_unsupported():
    with pytest.raises(NotImplementedError):
        gfpoly.factor_squarefree([1, 1, 0, 0, 0, 1], 2)


def test_frobenius_kernel_work_guard(monkeypatch):
    # x^13 + x + 8 is irreducible mod 211, so the degree loop runs to d = 6.
    # The packed multiply-mod runs for x^p (at most 2 per bit of p) and for
    # the n - 2 Frobenius rows, never for a per-degree exponentiation.
    f, p = [8, 1] + [0] * 11 + [1], 211
    calls = []
    real_mul = gfpoly._Modulus.mul

    def counting_mul(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)

    monkeypatch.setattr(gfpoly._Modulus, "mul", counting_mul)
    assert gfpoly.factor_degrees(f, p) == [13]
    assert len(calls) <= 2 * (p.bit_length() - 1) + (13 - 2)
