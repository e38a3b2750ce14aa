import math
import random

import pytest

import orbits
from heartproof import groups, perm, verdict
from heartproof.groups import (
    GroupTag,
    PermGroup,
    TooLarge,
    alternating_group,
    coset_action,
    exists_subgroup_of_index_dividing,
    group_file_lines,
    mathieu_group,
    psl2_group,
    subgroup_classes,
    symmetric_group,
)


def test_perm_parse_format_roundtrip():
    for text in ["(0 1 2)(3 4)", "(0 5)", "()", "(1 2)(3 7)"]:
        p = perm.parse_perm(text)
        assert perm.parse_perm(perm.format_perm(p)) == p
    assert perm.parse_perm("(0, 1, 2)") == perm.parse_perm("(0 1 2)")


def test_perm_parse_rejects_malformed():
    for bad in ["0 1 2", "(0 1", "(0 0 1)", "(0 1)(1 2)", "(a b)"]:
        with pytest.raises(ValueError):
            perm.parse_perm(bad)


def test_perm_parse_refuses_a_degree_above_the_limit():
    limit = perm.MAX_DEGREE
    assert len(perm.parse_perm(f"(0 {limit - 1})")) == limit
    for text, n in ((f"(0 {limit})", 0), ("(0 1)", limit + 1)):
        with pytest.raises(ValueError, match=f"degree {limit + 1} is above the limit "
                                             f"MAX_DEGREE = {limit}"):
            perm.parse_perm(text, n)


def test_perm_algebra():
    a = perm.parse_perm("(0 1 2)", 4)
    b = perm.parse_perm("(2 3)", 4)
    assert perm.mult(a, perm.inverse(a)) == perm.identity(4)
    assert perm.order(a) == 3
    assert perm.order(perm.mult(a, b)) == 4
    assert perm.conjugate(a, b) == perm.parse_perm("(0 1 3)", 4)


def test_symmetric_alternating_orders():
    for n in range(3, 10):
        assert symmetric_group(n).order == math.factorial(n)
        assert alternating_group(n).order == math.factorial(n) // 2


def test_generator_inverse_identity():
    for g in (symmetric_group(6), mathieu_group(11), psl2_group(7)):
        for x in g.generators:
            assert perm.mult(x, perm.inverse(x)) == perm.identity(g.degree)


def test_named_constructions_deterministic():
    a = groups.symmetric_group.__wrapped__(7)
    b = groups.symmetric_group.__wrapped__(7)
    assert a.generators == b.generators
    m1 = groups.mathieu_group.__wrapped__(11)
    m2 = groups.mathieu_group.__wrapped__(11)
    assert m1.generators == m2.generators


def test_mathieu_orders_and_transitivity():
    expected = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}
    for n, order in expected.items():
        g = mathieu_group(n)
        assert g.order == order
        assert g.is_doubly_transitive()
    with pytest.raises(groups.UnsupportedDegree):
        mathieu_group(13)


def test_mathieu_cross_checked_chain():
    for n in (11, 12, 24):
        g = mathieu_group(n)
        assert g.order_with_base("decreasing") == g.order


@pytest.mark.parametrize("ell,r", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_psl2_orders(ell, r):
    q = ell**r
    g = psl2_group(ell, r)
    assert g.degree == q + 1
    assert g.order == q * (q * q - 1) // math.gcd(2, q - 1)
    assert g.is_doubly_transitive()
    assert g.order_with_base("decreasing") == g.order


def test_psl2_invalid_field():
    with pytest.raises(groups.InvalidField):
        psl2_group(4, 1)


def test_double_transitivity_examples():
    assert alternating_group(5).is_doubly_transitive()
    assert not PermGroup([perm.parse_perm("(0 1 2 3 4)")], 5).is_doubly_transitive()
    assert psl2_group(13).is_doubly_transitive()


class _Unread(tuple):
    def __iter__(self):
        raise AssertionError("generators read")


def test_double_transitivity_is_found_once(monkeypatch):
    # the answers are read off the chain built at construction: no orbit
    # search over the generators runs, and no second chain is built
    g = PermGroup(psl2_group(13).generators, 14)
    monkeypatch.setattr(g, "generators", _Unread())
    monkeypatch.setattr(groups, "StabilizerChain", None)
    assert g.is_transitive() and g.is_doubly_transitive()
    monkeypatch.undo()
    assert not PermGroup([], degree=1).is_doubly_transitive()


def test_subgroup_class_counts():
    # total subgroup counts of small groups, a classical cross-check
    assert sum(r.class_size for r in subgroup_classes(alternating_group(4))) == 10
    assert sum(r.class_size for r in subgroup_classes(alternating_group(5))) == 59
    assert sum(r.class_size for r in subgroup_classes(symmetric_group(5))) == 156


def test_index_dividing_examples():
    a5 = alternating_group(5)
    assert exists_subgroup_of_index_dividing(a5, 4)[0] is False
    ok, witness, source = exists_subgroup_of_index_dividing(a5, 10)
    assert ok and "index 5" in witness and source == "enumeration"
    # the same answers through pure enumeration (custom tag, no family table)
    anon = PermGroup(a5.generators, tag=GroupTag.custom(5))
    assert exists_subgroup_of_index_dividing(anon, 4)[0] is False
    assert exists_subgroup_of_index_dividing(anon, 10)[0] is True
    assert exists_subgroup_of_index_dividing(a5, 1)[0] is False
    ok, witness, source = exists_subgroup_of_index_dividing(GroupTag.psl2(13), 12)
    assert not ok and "14" in witness and source == "table"
    # symmetric groups always have the index-2 subgroup
    ok, witness, source = exists_subgroup_of_index_dividing(GroupTag.symmetric(7), 6)
    assert ok and "index 2" in witness and source == "table"


def _relabelled(g: PermGroup, r) -> PermGroup:
    return PermGroup([perm.conjugate(x, r) for x in g.generators], degree=g.degree)


def test_index_search_lemma_on_intransitive_groups():
    # the base point's orbit Omega is a proper part of the points, so the
    # index of H & G_b in G_b is |G : H| * |b^H| / |Omega|, not |G : H| * |b^H| / n
    for gens in (["(0 1 2)", "(1 2)", "(3 4 5 6)", "(3 5)"], ["(0 1)", "(2 3 4 5 6)"]):
        g = PermGroup([perm.parse_perm(x, 7) for x in gens], degree=7)
        b = g.chain.levels[0].base
        omega = orbits.orbit(g.generators, b)
        stab = g.base_point_stabilizer()
        assert len(omega) < g.degree and stab.order * len(omega) == g.order
        assert all(x[b] == b for x in stab.generators)
        indices = set()
        for h in subgroup_classes(g):
            d = g.order // h.order
            m = len({x[b] for x in h.elements})
            h_b = [x for x in h.elements if x[b] == b]
            assert stab.order * len(omega) == len(h_b) * d * m
            indices.add(d)
        for d in range(2, g.order + 1):
            witness = groups._subgroup_of_index(g, d)
            assert (witness is not None) == (d in indices), d
            if witness is not None:
                assert all(x in g for x in witness)
                assert PermGroup(witness, degree=g.degree).order * d == g.order


def test_index_search_work_on_a_custom_psl2_11(monkeypatch):
    # PSL(2, 11) on the 12 points of the projective line, relabelled so that
    # no family table applies: A5 has index 11, and no index divides 10
    g = _relabelled(psl2_group(11), tuple((5 * i + 7) % 12 for i in range(12)))
    assert g.tag.kind == "custom"
    mult, calls = perm.mult, []

    def counted(p, q):
        calls.append(1)
        return mult(p, q)

    monkeypatch.setattr(perm, "mult", counted)
    ok, witness, source = exists_subgroup_of_index_dividing(g, 11)
    assert ok and source == "enumeration"
    assert witness.startswith("subgroup of order 60, index 11, generated by ")
    ok, witness, _ = exists_subgroup_of_index_dividing(g, 10)
    assert not ok and witness == "exhaustive enumeration: no proper subgroup index divides 10"
    # listing the whole subgroup lattice of G took 1 833 263 compositions
    assert len(calls) <= 100_000


def test_index_dividing_too_large():
    big = PermGroup(symmetric_group(9).generators, tag=GroupTag.custom(9))
    with pytest.raises(TooLarge):
        exists_subgroup_of_index_dividing(big, 8)


def test_coset_actions():
    s3 = symmetric_group(3)
    reg = coset_action(s3, PermGroup([], degree=3))
    assert reg.degree == 6 and reg.order == 6 and reg.is_transitive()

    a5 = alternating_group(5)
    a4 = PermGroup([perm.parse_perm("(1 2 3)", 5), perm.parse_perm("(1 2)(3 4)", 5)], 5)
    nat = coset_action(a5, a4)
    assert nat.degree == 5 and nat.is_doubly_transitive()

    l25 = psl2_group(5)
    h12 = next(r for r in subgroup_classes(l25) if r.order == 12)
    act = coset_action(l25, PermGroup(list(h12.gens), degree=6))
    assert act.degree == 5 and act.order == 60 and act.is_doubly_transitive()


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(groups.NotSubgroup):
        coset_action(alternating_group(5), PermGroup([perm.parse_perm("(0 1)", 5)], 5))


def test_group_file_roundtrip():
    text = "# alternating group on 5 points\n(0 1 2)\n(0 1 2 3 4)  # five cycle\n"
    g = verdict.custom_group(tuple(group_file_lines(text)))
    assert g.order == 60 and g.tag == GroupTag.custom(5)
    again = verdict.custom_group(tuple(group_file_lines(groups.format_group_file(g))))
    assert again.generators == g.generators


def test_membership():
    a5 = alternating_group(5)
    assert perm.parse_perm("(0 1)(2 3)", 5) in a5
    assert perm.parse_perm("(0 1)", 5) not in a5


def test_index_tables_agree_with_enumeration():
    # an independent route to the family index tables: the subgroup-index
    # search on relabelled custom copies, which no table can answer
    rng = random.Random(20261018)
    named = [symmetric_group(5), symmetric_group(6), alternating_group(5), alternating_group(6),
             alternating_group(7), psl2_group(13), psl2_group(2, 4), psl2_group(17),
             psl2_group(19), mathieu_group(11)]
    for g in named:
        relabel = list(range(g.degree))
        rng.shuffle(relabel)
        copy = _relabelled(g, tuple(relabel))
        for bound in (g.degree - 1, g.degree - 2):
            exists, _, source = exists_subgroup_of_index_dividing(g.tag, bound)
            assert source == "table", (g.tag.describe(), bound)
            found, _, source = exists_subgroup_of_index_dividing(copy, bound)
            assert source == "enumeration"
            assert found == exists, (g.tag.describe(), bound)
