"""The certificate route to commutant dimensions against the Kronecker oracle,
the spin-up against the span of a vector's images under every group element,
and the packed spin-up against the numpy one, on hypothesis-drawn transitive
groups."""

from math import gcd, isqrt

import numpy as np
import pytest

from heartproof import linalg, modules
from heartproof.fields import is_prime
from heartproof.groups import PermGroup

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import assume, given, settings  # noqa: E402

from kronecker import kronecker_commutant_dim  # noqa: E402
from numpy_spin import numpy_spin  # noqa: E402


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


def _assert_spins_agree(v, mats, p):
    rows, recipe = modules.spin(v, mats, p)
    want_rows, want_recipe = numpy_spin(v, mats, p)
    assert rows.dtype == np.int64 and np.array_equal(rows, want_rows)
    assert recipe == want_recipe


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transitive_groups(), st.sampled_from([3, 5, 7, 11, 13]), st.booleans(), st.data())
def test_packed_spin_matches_the_numpy_spin_on_hearts_and_duals(g, p, dual, data):
    h = modules.heart(g, p)
    mats = [m.T for m in h.gen_matrices] if dual else h.gen_matrices
    entries = st.integers(0, p - 1) | st.just(0)
    v = np.array(data.draw(st.lists(entries, min_size=h.dim, max_size=h.dim)), dtype=np.int64)
    _assert_spins_agree(v, mats, p)


def _largest_allowed_prime(dim):
    """The largest prime p with dim * p^2 < 2^63, the limit `modules` accepts."""
    p = isqrt((2**63 - 1) // dim)
    while not is_prime(p):
        p -= 1
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(0, 3), st.booleans(), st.booleans(), st.data())
def test_packed_spin_matches_the_numpy_spin_on_small_and_wide_entries(dim, gens, at_limit,
                                                                      high, data):
    # dimensions 1 and 2, the zero start vector, a p at the int64 limit, and
    # entries mostly p - 1, which bring the packed slots nearest their bound
    p = _largest_allowed_prime(dim) if at_limit else data.draw(st.sampled_from([3, 5, 7]))
    entries = st.sampled_from([p - 1] * 7 + [0, 1, p // 2]) if high else st.integers(0, p - 1)
    mats = [np.array(data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                        min_size=dim, max_size=dim)), dtype=np.int64)
            for _ in range(gens)]
    if data.draw(st.booleans()):
        v = np.zeros(dim, dtype=np.int64)
    else:
        v = np.array(data.draw(st.lists(entries, min_size=dim, max_size=dim)), dtype=np.int64)
    _assert_spins_agree(v, mats, p)


@pytest.mark.parametrize("v, mats, p", [
    ([4, 2, 6], [[[6] * 3] * 3] * 2, 7),
    ([2, 2, 2], [[[1, 2, 2], [2, 0, 2], [2, 2, 2]], [[2, 1, 2], [2, 2, 2], [2, 2, 2]]], 3),
])
def test_packed_spin_where_images_and_reductions_fill_the_slots(v, mats, p):
    # images whose slots reach d(p-1)^2, which the reductions then raise:
    # slots sized for the images alone carry into their neighbours here
    _assert_spins_agree(np.array(v), [np.array(m) for m in mats], p)
