"""Transitivity, double transitivity, element lists and cyclic subgroups read
off the stabilizer chain, against breadth-first closures under the
generators (tests/orbits.py), on hypothesis-drawn groups of degree 1 to 8:
trivial, intransitive and with identity generators among them."""

import pytest

import orbits
from heartproof import perm
from heartproof.groups import SUBGROUP_ENUM_THRESHOLD, PermGroup, TooLarge, subgroup_classes

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import example, given, settings  # noqa: E402


def _moving(n: int, points: list[int], images: list[int]) -> perm.Perm:
    """The permutation of n points sending points[i] to images[i]."""
    out = list(range(n))
    for a, b in zip(points, images):
        out[a] = b
    return tuple(out)


@st.composite
def small_groups(draw):
    """Up to four generators on n points, each a permutation of all points
    or of a drawn set of them (the identity when the set is empty or the
    images fixed), so the group is often intransitive or trivial."""
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        points = sorted(draw(st.sets(st.integers(0, n - 1)) | st.just(set(range(n)))))
        gens.append(_moving(n, points, draw(st.permutations(points))))
    return gens, n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_groups())
# the trivial group on one and on four points, an identity generator, an
# intransitive group, and S2 (2-transitive by transitivity alone)
@example(([], 1))
@example(([], 4))
@example(([(0, 1, 2), (1, 2, 0)], 3))
@example(([(1, 0, 2, 3), (0, 1, 3, 2)], 4))
@example(([(1, 0)], 2))
def test_chain_answers_match_the_closures(drawn):
    gens, n = drawn
    g = PermGroup(gens, degree=n)
    assert g.is_transitive() == orbits.is_transitive(gens, n)
    assert g.is_doubly_transitive() == orbits.is_doubly_transitive(gens, n)
    if g.order > SUBGROUP_ENUM_THRESHOLD:
        with pytest.raises(TooLarge):
            g.elements()
        return
    assert g.elements() == tuple(sorted(orbits.elements(gens, n)))
    if g.order <= 120:
        # the one-generator classes are the cyclic subgroups, each once
        cyclic = [cls for cls in subgroup_classes(g) if len(cls.gens) == 1]
        for cls in cyclic:
            assert cls.elements == frozenset(orbits.elements(cls.gens, n))
        nontrivial = {frozenset(orbits.elements([x], n)) for x in g.elements()} - {
            frozenset({perm.identity(n)})}
        assert sum(cls.class_size for cls in cyclic) == len(nontrivial)
