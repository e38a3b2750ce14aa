"""The subgroup-index search through the point stabilizer against the whole
subgroup lattice, on hypothesis-drawn transitive groups."""

import pytest

from heartproof import groups
from heartproof.groups import PermGroup, subgroup_classes

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402

from test_commutant_oracle import transitive_groups  # noqa: E402


@settings(max_examples=120, deadline=None, derandomize=True)
@given(transitive_groups())
def test_index_search_matches_the_subgroup_lattice(g):
    assume(g.order <= 1500)
    indices = {g.order // h.order for h in subgroup_classes(g)}
    for d in range(2, g.degree + 1):
        witness = groups._subgroup_of_index(g, d)
        assert (witness is not None) == (d in indices), d
        if witness is not None:
            assert all(x in g for x in witness)
            assert PermGroup(witness, degree=g.degree).order * d == g.order
