"""The certificate route to commutant dimensions against the Kronecker oracle
on hypothesis-drawn transitive groups."""

from math import gcd

import pytest

from heartproof import modules
from heartproof.groups import PermGroup

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

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
    result = modules.is_irreducible(h, seed=0)
    if result.irreducible:
        assert modules.commutant_dim(h, result) == kronecker_commutant_dim(h)
