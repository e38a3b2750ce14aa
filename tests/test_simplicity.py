import pytest

from heartproof import groups, modules, perm, simplicity, verdict
from heartproof.groups import (
    GroupTag,
    PermGroup,
    alternating_group,
    exists_subgroup_of_index_dividing,
    mathieu_group,
    psl2_group,
)
from heartproof.simplicity import (
    Level,
    abs_irred_shortcut,
    decide_heart_simplicity,
    embedding_obstruction,
    very_simple_alt,
)
from kronecker import kronecker_commutant_dim


def cyclic5():
    return PermGroup([perm.parse_perm("(0 1 2 3 4)")], 5)


def f20():
    return PermGroup([perm.parse_perm("(0 1 2 3 4)"), perm.parse_perm("(1 2 4 3)")], 5)


def test_shortcut_examples():
    assert abs_irred_shortcut(alternating_group(6), 11).level == Level.ABSOLUTELY_SIMPLE
    assert abs_irred_shortcut(alternating_group(5), 5) is None  # 5 | 60
    assert abs_irred_shortcut(cyclic5(), 7) is None  # not doubly transitive


def test_central_simple_by_index_examples():
    # custom tags take the computed path: an absolutely simple heart (here by
    # the shortcut) with no proper subgroup index dividing its dimension
    for g, p in [(mathieu_group(11), 7), (alternating_group(5), 7)]:
        v = decide_heart_simplicity(PermGroup(g.generators, tag=GroupTag.custom(g.degree)), p)
        assert v.level == Level.CENTRAL_SIMPLE
        assert v.evidence[-1].statement.startswith("index criterion:")
    # the family table answers the index question for a tag
    exists, _, source = exists_subgroup_of_index_dividing(GroupTag.psl2(13), 13)
    assert (exists, source) == (False, "table")
    # index-5 subgroups of A_5 on 6 points defeat the criterion at dimension 5
    l25 = psl2_group(5)
    v = decide_heart_simplicity(PermGroup(l25.generators, tag=GroupTag.custom(6)), 11)
    assert v.level == Level.ABSOLUTELY_SIMPLE
    assert v.evidence[-1].statement.startswith("some proper subgroup index divides 5")


def test_very_simple_alt_trichotomy():
    assert very_simple_alt(6, 11).level == Level.VERY_SIMPLE
    v = very_simple_alt(5, 11)
    assert v.level == Level.CENTRAL_SIMPLE
    assert v.evidence[-1].statement == "every non-obvious normal subalgebra is a 2x2 matrix algebra"
    assert very_simple_alt(5, 7).level == Level.VERY_SIMPLE
    assert very_simple_alt(5, 3).level == Level.VERY_SIMPLE


def test_a5_dichotomy_against_divisibility():
    for p in range(7, 101):
        if any(p % d == 0 for d in range(2, p)):
            continue
        verdict_very = very_simple_alt(5, p).level == Level.VERY_SIMPLE
        assert verdict_very == (p % 5 in (2, 3))
        # 60 | |PSL(2,p)| exactly in the non-very-simple regime
        assert embedding_obstruction(60, "PSL2", p) == (p % 5 in (1, 4))


def test_embedding_obstruction_examples():
    assert embedding_obstruction(60, "PSL2", 7) is False        # 60 does not divide 168
    assert embedding_obstruction(7920, "PSL2", 5) is False      # M11 vs order 60
    assert embedding_obstruction(443520, "PSL3", 3) is False    # M22 vs order 5616
    assert simplicity.psl3_order(3) == 5616
    assert simplicity.psl3_order(7) == 1876896
    assert simplicity.psl3_order(7) % 11 != 0  # recomputed 11-divisibility


def test_decide_examples():
    assert decide_heart_simplicity(GroupTag.mathieu(23), 11).level == Level.VERY_SIMPLE
    assert decide_heart_simplicity(GroupTag.alternating(7), 11).level == Level.VERY_SIMPLE
    v = decide_heart_simplicity(cyclic5(), 11)
    assert v.level == Level.NOT_SIMPLE
    # over F_7 the cyclic heart is irreducible with a quartic-field commutant
    assert decide_heart_simplicity(cyclic5(), 7).level == Level.SIMPLE


def test_decide_family_paths():
    assert decide_heart_simplicity(GroupTag.mathieu(11), 5).level == Level.VERY_SIMPLE
    assert decide_heart_simplicity(GroupTag.mathieu(22), 7).level == Level.VERY_SIMPLE
    assert decide_heart_simplicity(GroupTag.mathieu(12), 3).level == Level.CENTRAL_SIMPLE
    assert decide_heart_simplicity(GroupTag.psl2(13), 5).level == Level.CENTRAL_SIMPLE
    assert decide_heart_simplicity(GroupTag.psu3(3), 5).level == Level.CENTRAL_SIMPLE
    assert decide_heart_simplicity(GroupTag.psu3(5), 11).level == Level.UNKNOWN
    assert decide_heart_simplicity(GroupTag.symmetric(8), 3).level == Level.VERY_SIMPLE
    # M11 at p = 3 is outside the cited table; on the concrete group the
    # computed path still establishes central simplicity honestly
    assert decide_heart_simplicity(mathieu_group(11), 3).level == Level.CENTRAL_SIMPLE


def test_decide_builds_no_group_for_a_bare_tag(monkeypatch):
    # outside its cited table a bare tag is UNKNOWN, and no group is built
    built = []
    monkeypatch.setattr(groups, "mathieu_group", lambda n: built.append(n))
    v = decide_heart_simplicity(GroupTag.mathieu(11), 3)
    assert v.level == Level.UNKNOWN and built == []
    assert v.evidence[0].statement == ("M11 is outside the cited modular table "
                                       "and no concrete group is given")


def test_decide_custom_paths():
    v = decide_heart_simplicity(f20(), 7)
    assert v.level == Level.ABSOLUTELY_SIMPLE
    assert any("undetermined" in e.statement for e in v.evidence)
    l25 = psl2_group(5)
    assert decide_heart_simplicity(l25, 7).level == Level.ABSOLUTELY_SIMPLE


def test_hierarchy_monotonicity():
    # very simple => central simple => absolutely simple => simple, in the
    # order of the levels; UNKNOWN and NOT_SIMPLE lie below them all
    assert (Level.UNKNOWN < Level.NOT_SIMPLE < Level.SIMPLE < Level.ABSOLUTELY_SIMPLE
            < Level.CENTRAL_SIMPLE < Level.VERY_SIMPLE)


def test_shortcut_agrees_with_computation():
    # wherever both the shortcut and the direct computation apply, the
    # absolute-simplicity answers agree
    cases = [(ctor(n), p)
             for ctor in (groups.symmetric_group, alternating_group)
             for n in (5, 6, 7)
             for p in (11, 13)]
    cases.append((alternating_group(5), 7))
    for g, p in cases:
        short = abs_irred_shortcut(g, p)
        assert short is not None, (g, p)
        h = modules.heart(g, p)
        r = modules.is_irreducible(h)
        assert r.irreducible
        assert modules.commutant_dim(h, r) == kronecker_commutant_dim(h) == 1


def test_evidence_nonempty():
    for tag, p in [(GroupTag.mathieu(23), 11), (GroupTag.alternating(5), 11),
                   (GroupTag.psu3(3), 7)]:
        v = decide_heart_simplicity(tag, p)
        assert v.evidence


# every family tag with a concrete group whose heart the cited table covers
TABLE_TAGS = [GroupTag.mathieu(n) for n in (11, 12, 22, 23, 24)] + [
    GroupTag.psl2(ell, r) for ell, r in ((13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                                         (5, 2), (3, 3))]
TABLE_PRIMES = (3, 5, 7, 11, 13)


def _cited_pairs():
    return [(tag, p) for tag in TABLE_TAGS for p in TABLE_PRIMES
            if groups.family_heart_table(tag, p)]


def test_heart_table_agrees_with_meataxe():
    # an independent route to every cited entry in reach: MeatAxe + commutant
    pairs = _cited_pairs()
    assert len(pairs) == 57
    for tag, p in pairs:
        h = modules.heart(tag.family.concrete(tag), p)
        r = modules.is_irreducible(h)
        assert r.irreducible and modules.commutant_dim(h, r) == 1, (tag.describe(), p)


def test_heart_table_same_answer_from_both_callers():
    outside = [(GroupTag.psl2(5, 2), 5), (GroupTag.psl2(3, 3), 3), (GroupTag.mathieu(11), 3)]
    for tag, p in _cited_pairs() + outside:
        s = verdict.Scenario(tag.n, p, 1, "tag", tag)
        kind, passed, _ = verdict._check_heart_abs_irred(s, verdict._resolve_group(s))
        v = decide_heart_simplicity(tag.family.concrete(tag), p)
        from_table = not any(e.kind == "computation" for e in v.evidence)
        assert from_table == (kind == "table" and passed is True), (tag, p)
        assert from_table == ((tag, p) not in outside)
        assert v.level >= Level.CENTRAL_SIMPLE


# (generators on 5 points, p) reaching each outcome of the index route's heart
# row, with the simplicity level the heart command prints
HEART_ROW_CASES = {
    "shortcut": (("(0 1 2 3 4)", "(0 1 2)"), 7, Level.CENTRAL_SIMPLE),
    "reducible": (("(0 1 2 3 4)",), 11, Level.NOT_SIMPLE),
    "commutant": (("(0 1 2 3 4)",), 7, Level.SIMPLE),
    "meataxe": (("(0 1 2 3 4)", "(0 1 2)"), 3, Level.CENTRAL_SIMPLE),
}


@pytest.mark.parametrize("outcome", HEART_ROW_CASES)
def test_heart_row_and_level_read_one_memo_entry(outcome, monkeypatch):
    # analyze's heart row passes exactly when the heart's level is at least
    # absolutely simple, and from an empty memo the two together run the
    # attempts of one fresh search and the commutant at most once
    gens, p, level = HEART_ROW_CASES[outcome]
    calls = {"_attempt": 0, "commutant_dim": 0}
    for name in calls:
        def counted(*args, _f=getattr(modules, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(modules, name, counted)
    s = verdict.Scenario(5, p, 1, "custom", generators=gens, assume_zeta=True)
    info = verdict._resolve_group(s)
    fresh = modules.is_irreducible(modules.heart(info.concrete, p))
    searched = calls["_attempt"]
    calls["_attempt"] = 0
    kind, passed, detail = verdict._check_heart_abs_irred(s, info)
    v = decide_heart_simplicity(info.concrete, p)
    assert (kind, passed, v.level) == ("computed", level >= Level.ABSOLUTELY_SIMPLE, level)
    if outcome == "shortcut":
        assert detail.endswith("(shortcut)") and calls == {"_attempt": 0, "commutant_dim": 0}
        return
    assert searched > 0 and calls == {"_attempt": searched, "commutant_dim": int(fresh.irreducible)}
    if outcome == "reducible":
        dim = len(fresh.invariant_subspace)
        assert detail == f"invariant subspace of dimension {dim}"
        assert v.evidence[0].statement.startswith(detail)
    else:
        assert detail.startswith("irreducible by the MeatAxe; commutant dimension ")
