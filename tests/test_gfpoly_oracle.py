"""Distinct-degree splitting, factor degrees and equal-degree splitting over
F_p against sympy's galoistools, on hypothesis-drawn squarefree polynomials.
"""

import pytest

from heartproof import gfpoly

pytest.importorskip("sympy")
st = pytest.importorskip("hypothesis.strategies")
from hypothesis import assume, given, settings  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p  # noqa: E402

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
