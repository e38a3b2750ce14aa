"""The Galois probe against sympy's `galois_group` at degrees 5 and 6.

The probe may stay open (unknown, heuristic) or claim containment only, but
whatever it proves must be the group sympy computes: proven_sn and
proven_an_or_sn name S_n or A_n through `resolved_group`, and contains_tag
'alternating' rests on a square discriminant, so the group must lie in A_n.
"""

from math import factorial

import pytest

from heartproof.probe import PolyZ, classify_galois, parse_poly

pytest.importorskip("sympy")
st = pytest.importorskip("hypothesis.strategies")
from hypothesis import assume, given, settings  # noqa: E402
from sympy import Poly, symbols  # noqa: E402
from sympy.polys.numberfields.galoisgroups import galois_group  # noqa: E402

X = symbols("x")

# the Galois group as sympy computes it, by name or by order
CORPUS = [
    "x^5 - 110*x^3 - 55*x^2 + 2310*x + 979",  # C5
    "x^5 - 5*x + 12",  # D5
    "x^5 - 2",  # F20
    "x^5 + 20*x + 16",  # A5
    "x^5 - x - 1",  # S5
    "x^6 + 3",  # order 6
    "x^6 - 2",  # order 12
    "x^6 + x^3 + 1",  # order 6
    "x^6 - 3*x^2 - 1",  # order 12, inside A6
    "x^6 + 24*x - 20",  # A6
    "x^6 - x - 1",  # S6
    "x^6 + 2*x^5 + 3*x^4 + 4*x^3 + 5*x^2 + 6*x + 7",  # PGL(2,5), order 120
]


def _agrees_with_sympy(f: PolyZ) -> str:
    """Check the probe's claims on f against sympy; return its conclusion."""
    group, in_alternating = galois_group(Poly(list(reversed(f.coeffs)), X))
    ev = classify_galois(f, 40)
    assert ev.conclusion in {"unknown", "heuristic", "contains_tag", "proven_sn",
                             "proven_an_or_sn"}, f
    if ev.conclusion in ("proven_sn", "proven_an_or_sn"):
        full = factorial(f.degree)
        want = {"symmetric": full, "alternating": full // 2}[ev.resolved_group]
        assert group.order() == want, (str(f), ev.resolved_group, group.order())
    if ev.conclusion == "contains_tag":
        assert ev.conclusion_tag == "alternating" and in_alternating, str(f)
    return ev.conclusion


def test_probe_agrees_with_sympy_on_the_named_corpus():
    conclusions = [_agrees_with_sympy(parse_poly(text)) for text in CORPUS]
    # the corpus reaches both proofs and the containment claim
    assert {"proven_sn", "proven_an_or_sn", "contains_tag"} <= set(conclusions)


@st.composite
def irreducible_monic(draw):
    """Monic f of degree 5 or 6 with coefficients in [-12, 12], irreducible over Q."""
    n = draw(st.sampled_from([5, 6]))
    low = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    assume(low[0] != 0)
    f = PolyZ(tuple(low) + (1,))
    assume(Poly(list(reversed(f.coeffs)), X).is_irreducible)
    return f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(irreducible_monic())
def test_probe_agrees_with_sympy_on_random_polynomials(f):
    _agrees_with_sympy(f)
