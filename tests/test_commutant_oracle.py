"""The certificate route to commutant dimensions against the Kronecker oracle,
and the spin-up against the span of a vector's images under every group
element, on hypothesis-drawn transitive groups."""

from math import gcd

import numpy as np
import pytest

from heartproof import linalg, modules
from heartproof.groups import PermGroup

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import assume, given, settings  # noqa: E402

from kronecker import kronecker_commutant_dim  # noqa: E402


def _relabel(g, r):
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[r[i]] = r[gi]
    return tuple(out)


@st.composite
def transitive_groups(draw):
    """An n-cycle (so the group is transitive), up to two more generators:
    multipliers x -> a x mod n, which give cyclic, dihedral and Frobenius
    groups, or arbitrary permutations; then a random relabelling."""
    n = draw(st.integers(3, 10))
    gens = [tuple((i + 1) % n for i in range(n))]
    units = [a for a in range(2, n) if gcd(a, n) == 1]
    extra = st.permutations(range(n)).map(tuple)
    if units:
        multipliers = st.sampled_from(units).map(lambda a: tuple(a * x % n for x in range(n)))
        extra = st.one_of(multipliers, extra)
    gens += draw(st.lists(extra, max_size=2))
    r = draw(st.permutations(range(n)))
    return PermGroup([_relabel(g, r) for g in gens], degree=n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transitive_groups(), st.sampled_from([3, 5, 7, 11, 13]))
def test_commutant_matches_kronecker_on_irreducible_hearts(g, p):
    h = modules.heart(g, p)
    result = modules.is_irreducible(h)
    if result.irreducible:
        assert modules.commutant_dim(h, result) == kronecker_commutant_dim(h)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transitive_groups(), st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_spin_spans_the_orbit_of_v(g, p, data):
    assume(g.order <= 5000)
    h = modules.heart(g, p)
    # eigenvectors of the first generator span little under it alone, so
    # they tell a spin that skips generators from one that does not
    first = h.gen_matrices[0]
    eigen = [u for lam in range(1, p)
             for u in linalg.kernel_basis((first - lam * linalg.identity(h.dim)).T % p, p)]
    if eigen and data.draw(st.booleans()):
        v = data.draw(st.sampled_from(eigen))
    else:
        v = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=h.dim, max_size=h.dim)))
    assume(v.any())
    rows, recipe = modules.spin(v, h.gen_matrices, p)
    images = np.array([v @ modules.heart_matrix(x, p) for x in g.elements()]) % p
    span = linalg.rref(images, p)[0]
    assert linalg.rank(rows, p) == rows.shape[0]
    assert np.array_equal(linalg.rref(rows, p)[0], span[: rows.shape[0]])
    assert not span[rows.shape[0]:].any()
    assert np.array_equal(rows[0], v)
    for i, (src, gen) in enumerate(recipe, start=1):
        assert np.array_equal(rows[i], rows[src] @ h.gen_matrices[gen] % p)
