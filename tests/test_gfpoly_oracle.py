"""Distinct-degree splitting, factor degrees and equal-degree splitting over
F_p against sympy's galoistools, on hypothesis-drawn squarefree polynomials,
and the Euclidean gcd on drawn pairs with common factors.
"""

import pytest

from heartproof import gfpoly

pytest.importorskip("sympy")
st = pytest.importorskip("hypothesis.strategies")
from hypothesis import assume, given, settings  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor_sqf, gf_gcd, gf_sqf_p  # noqa: E402

# small primes, the probe's range, and one prime above 2^31
PRIMES = [2, 3, 5, 7, 13, 101, 211, 2147483659]


@st.composite
def squarefree_mod_p(draw):
    """(f, p): f monic squarefree over F_p of degree 1 to 30, ascending.

    Half the draws take uniform coefficients from a seeded Random: shrunk
    hypothesis lists are mostly zeros, and only dense operands fill the
    packed slots of the multiply-mod near their bound."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 30))
    uniform = st.randoms(use_true_random=False).map(lambda r: [r.randrange(p) for _ in range(n)])
    f = draw(st.one_of(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), uniform)) + [1]
    assume(gf_sqf_p(f[::-1], p, ZZ))
    return f, p


def _sympy_factors(f, p):
    """Monic irreducible factors of f over F_p, ascending coefficients."""
    _, factors = gf_factor_sqf(f[::-1], p, ZZ)
    return [[int(c) for c in reversed(g)] for g in factors]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(squarefree_mod_p())
def test_distinct_degree_against_sympy(case):
    f, p = case
    factors = _sympy_factors(f, p)
    products = {}
    for g in factors:
        d = gfpoly.degree(g)
        products[d] = gfpoly.mul(products.get(d, [1]), g, p)
    assert gfpoly.distinct_degree(f, p) == [(products[d], d) for d in sorted(products)]
    assert gfpoly.factor_degrees(f, p) == sorted(gfpoly.degree(g) for g in factors)
    if p != 2:
        assert gfpoly.factor_squarefree(f, p) == sorted(factors)


def _poly_mod(p, max_degree):
    """A polynomial over F_p of degree at most max_degree, maybe zero or a
    constant; half the draws take uniform coefficients, as shrunk
    hypothesis lists are mostly zeros."""
    uniform = st.randoms(use_true_random=False).map(
        lambda r: [r.randrange(p) for _ in range(r.randint(0, max_degree + 1))])
    return st.one_of(st.lists(st.integers(0, p - 1), max_size=max_degree + 1),
                     uniform).map(gfpoly.trim)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_gcd_against_sympy(p, data):
    # f = h*a and g = h*b, so the gcd is often a nonconstant h
    h, a, b = (data.draw(_poly_mod(p, k)) for k in (6, 12, 12))
    f, g = gfpoly.mul(h, a, p), gfpoly.mul(h, b, p)
    for x, y in [(f, g), (g, f), (f, []), ([], g), (f, [p - 1])]:
        assert gfpoly.gcd(x, y, p) == [int(c) for c in reversed(gf_gcd(x[::-1], y[::-1], p, ZZ))]
