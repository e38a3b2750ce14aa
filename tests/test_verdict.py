import itertools
import json
from pathlib import Path

import pytest

from heartproof import groups, modules, verdict
from heartproof.groups import GroupTag
from heartproof.weights import MAX_R
from heartproof.verdict import (
    Certificate,
    InvalidScenario,
    Scenario,
    certificate_to_json,
    dispatch,
    explain,
    scenario_from_dict,
    scenario_to_dict,
)

A5 = ("(0 1 2)", "(0 1 2 3 4)")
A6 = ("(0 1 2)", "(1 2 3 4 5)")
C5 = ("(0 1 2 3 4)",)
F20 = ("(0 1 2 3 4)", "(1 2 4 3)")

FIXTURES = Path("src/heartproof/data/fixtures.jsonl")
GOLDEN = Path(__file__).parent / "golden"


def fixture_entries():
    out = []
    for line in FIXTURES.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(json.loads(line))
    return out


def test_route_assignments():
    cases = [
        (Scenario(7, 11, 1, "tag", GroupTag.symmetric(7)),
         "symmetric_alternating_ring", "cyclotomic_ring", ("Z[zeta_11]",)),
        (Scenario(5, 7, 2, "tag", GroupTag.alternating(5)),
         "symmetric_alternating_algebra", "cyclotomic_product_algebra",
         ("Q(zeta_7)", "Q(zeta_49)")),
        (Scenario(5, 11, 1, "custom", generators=A5, assume_zeta=True),
         "coprime_order_ring", "cyclotomic_ring", ("Z[zeta_11]",)),
        (Scenario(14, 5, 1, "tag", GroupTag.psl2(13)),
         "psl2_projective_line_ring", "cyclotomic_ring", ("Z[zeta_5]",)),
        (Scenario(28, 5, 1, "tag", GroupTag.psu3(3)),
         "psu3_unital_ring", "cyclotomic_ring", ("Z[zeta_5]",)),
        (Scenario(6, 5, 1, "custom", generators=A6, assume_zeta=True),
         "index_criterion_ring", "cyclotomic_ring", ("Z[zeta_5]",)),
    ]
    for scenario, theorem, kind, fields in cases:
        cert = dispatch(scenario)
        assert cert.theorem == theorem
        assert cert.conclusion.kind == kind
        assert cert.conclusion.fields == fields
        assert cert.conclusion.dimension_over_q == scenario.q - 1


def test_inconclusive_names_hypothesis():
    cert = dispatch(Scenario(11, 3, 1, "tag", GroupTag.mathieu(11)))
    assert cert.conclusion.kind == "inconclusive"
    assert cert.first_failed.anchor == "p > 3 when the degree is 11"
    report = explain(cert)
    assert "first failed hypothesis: p > 3 when the degree is 11" in report


def test_soundness_gate_on_fixtures():
    for entry in fixture_entries():
        if entry["expect"].get("error"):
            continue
        cert = dispatch(scenario_from_dict(entry["scenario"]))
        if cert.conclusion.kind != "inconclusive":
            assert all(c.passed is True for c in cert.checks), entry["name"]


def test_invalid_scenarios():
    with pytest.raises(InvalidScenario):
        dispatch(Scenario(4, 7, 1, "tag", GroupTag.symmetric(4)))
    with pytest.raises(InvalidScenario):
        dispatch(Scenario(10, 5, 2, "tag", GroupTag.symmetric(10)))
    with pytest.raises(InvalidScenario):
        dispatch(Scenario(7, 9, 1, "tag", GroupTag.symmetric(7)))
    with pytest.raises(InvalidScenario):
        dispatch(Scenario(7, 2, 1, "tag", GroupTag.symmetric(7)))
    with pytest.raises(InvalidScenario):
        dispatch(Scenario(12, 11, 1, "tag", GroupTag.mathieu(11)))
    with pytest.raises(InvalidScenario, match=f"r = {MAX_R + 1} is above the limit MAX_R = {MAX_R}"):
        dispatch(Scenario(7, 11, MAX_R + 1, "tag", GroupTag.symmetric(7)))


def test_zeta_required_for_custom():
    cert = dispatch(Scenario(5, 11, 1, "custom", generators=A5))
    assert cert.conclusion.kind == "inconclusive"
    assert "root of unity" in cert.first_failed.anchor
    cert2 = dispatch(Scenario(5, 11, 1, "custom", generators=A5, assume_zeta=True))
    assert cert2.conclusion.kind == "cyclotomic_ring"


def test_zeta_monotonicity():
    # asserting the root of unity never turns a conclusive verdict inconclusive
    scenarios = [
        Scenario(7, 11, 1, "tag", GroupTag.symmetric(7)),
        Scenario(23, 11, 1, "tag", GroupTag.mathieu(23)),
        Scenario(14, 5, 1, "tag", GroupTag.psl2(13)),
        Scenario(5, 11, 1, "custom", generators=A5, assume_zeta=True),
    ]
    from dataclasses import replace

    for s in scenarios:
        before = dispatch(s).conclusion.kind
        after = dispatch(replace(s, assume_zeta=True)).conclusion.kind
        if before != "inconclusive":
            assert after == before


def test_explain_contract():
    for entry in fixture_entries():
        if entry["expect"].get("error"):
            continue
        cert = dispatch(scenario_from_dict(entry["scenario"]))
        report = explain(cert)
        check_lines = "\n".join(
            ln for ln in report.splitlines() if ln.startswith("  ["))
        for check in cert.checks:
            assert check_lines.count(check.anchor) == 1, (entry["name"], check.anchor)
        if cert.conclusion.kind == "inconclusive" and cert.first_failed is not None:
            assert f"first failed hypothesis: {cert.first_failed.anchor}" in report
    cert = dispatch(Scenario(5, 7, 2, "tag", GroupTag.alternating(5)))
    report = explain(cert)
    assert "Q(zeta_7)" in report and "Q(zeta_49)" in report


def test_json_roundtrip_byte_identical_report():
    for entry in fixture_entries():
        if entry["expect"].get("error"):
            continue
        cert = dispatch(scenario_from_dict(entry["scenario"]))
        text = certificate_to_json(cert)
        # the JSON names its scenario fully: dispatching it again gives the
        # same certificate, byte for byte, and the same report
        back = dispatch(scenario_from_dict(json.loads(text)["scenario"]))
        assert explain(back) == explain(cert)
        assert certificate_to_json(back) == text


def test_scenario_dict_roundtrip():
    for entry in fixture_entries():
        s = scenario_from_dict(entry["scenario"])
        again = scenario_from_dict(scenario_to_dict(s))
        assert again == s


def _index_route(s):
    return verdict._route_index_criterion(s, verdict._resolve_group(s))


def test_index_criterion_route_examples():
    # order coprime to p: everything passes through the shortcut facts
    s = Scenario(5, 11, 1, "custom", generators=A5, assume_zeta=True)
    assert all(c.passed is True for c in _index_route(s))

    # n = p + 1 branch
    s = Scenario(6, 5, 1, "custom", generators=A6, assume_zeta=True)
    arith = _index_route(s)[-1]
    assert arith.passed is True and arith.detail == "n = 6, p = 5"

    # M11 at p = 5: arithmetic branch fails, very simplicity rescues
    s = Scenario(11, 5, 1, "tag", GroupTag.mathieu(11))
    arith = _index_route(s)[-1]
    assert arith.anchor.startswith("either") and arith.passed is True
    assert "very simple" in arith.detail


# PSL(2, 9) on the projective line, as a custom presentation
PSL2_9 = ("(0 1 2)(3 4 5)(6 7 8)", "(1 6 2 3)(4 7 8 5)", "(0 9)(1 2)(4 7)(5 8)")


def test_very_simple_fallback_reuses_the_heart_rows_meataxe(monkeypatch):
    # from an empty memo the heart row and the fallback together run the
    # attempts of one fresh search, and the commutant once
    calls = {"_attempt": 0, "commutant_dim": 0}
    for name in calls:
        def counted(*args, _f=getattr(modules, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(modules, name, counted)
    verdict._custom_group_on.cache_clear()
    s = Scenario(10, 3, 1, "custom", generators=PSL2_9, assume_zeta=True)
    modules.is_irreducible(modules.heart(verdict._resolve_group(s).concrete, 3))
    fresh = calls["_attempt"]
    calls["_attempt"] = 0
    monkeypatch.setattr(modules, "_MEMO", modules._Memo())
    cert = dispatch(s)
    assert fresh > 0 and calls == {"_attempt": fresh, "commutant_dim": 1}
    assert cert.notes == ("route index_criterion_ring failed at: either n = p + 1, "
                          "or p does not divide n - 1, or the heart is very simple",)
    side = _index_route(Scenario(10, 3, 1, "custom", generators=PSL2_9, assume_zeta=True))[-1]
    assert (side.kind, side.passed) == ("arithmetic", False)
    assert side.detail == ("n = 10, p = 3; very-simple branch also unavailable "
                           "(strongest established level: CENTRAL_SIMPLE)")


def test_zeta_is_free_only_for_simple_family_groups():
    # U3(2) has order 72 and is solvable; U3(3) is simple
    zeta = "base field contains a primitive 5-th root of unity"
    for ell, simple in ((2, False), (3, True)):
        tag = GroupTag.psu3(ell)
        s = Scenario(tag.n, 5, 1, "tag", tag)
        row = verdict._route_coprime_order(s, verdict._resolve_group(s))[0]
        assert row.anchor == zeta
        assert (row.kind, row.passed) == (("table", True) if simple else ("assumed", False))
    assert GroupTag.psu3(2).family.order(GroupTag.psu3(2)) == 72
    cert = dispatch(Scenario(9, 5, 1, "tag", GroupTag.psu3(2)))
    assert f"route coprime_order_ring failed at: {zeta}" in cert.notes
    cert = dispatch(Scenario(9, 5, 1, "tag", GroupTag.psu3(2), assume_zeta=True))
    assert cert.notes[0] == ("route coprime_order_ring failed at: "
                             "no maximal subgroup index divides 8")


def test_psl2_heart_table_range():
    # the modular table is cited for q > 11 with p != l, or q = l = p
    def heart_check(ell, r, p):
        tag = GroupTag.psl2(ell, r)
        s = Scenario(tag.n, p, 1, "tag", tag)
        return verdict._check_heart_abs_irred(s, verdict._resolve_group(s))[1]

    assert heart_check(5, 2, 5) is None    # PSL2(25), p = l, q != l
    assert heart_check(3, 3, 3) is None    # PSL2(27), p = l, q != l
    assert heart_check(13, 1, 13) is True  # q = l = p
    assert heart_check(13, 1, 5) is True   # p != l


def test_custom_group_cache_drops_the_oldest():
    # the CLI asks without n and dispatch with n = the degree: both calls
    # share one entry, so 32 groups fit and the least recently used goes
    verdict._custom_group_on.cache_clear()
    scenarios = []
    for r in itertools.islice(itertools.permutations(range(5)), 33):
        gens = (f"({r[0]} {r[1]} {r[2]})", "(" + " ".join(map(str, r)) + ")")
        scenarios.append(Scenario(5, 11, 1, "custom", generators=gens))
    groups = []
    for s in scenarios:
        groups.append(verdict.custom_group(s.generators))
        assert verdict._resolve_group(s).concrete is groups[-1]
    assert verdict._custom_group_on.cache_info().currsize == 32
    assert all(verdict._resolve_group(s).concrete is g for s, g in zip(scenarios[1:], groups[1:]))
    assert verdict._resolve_group(scenarios[0]).concrete is not groups[0]
    assert verdict._custom_group_on.cache_info().currsize == 32


def test_probe_route():
    cert = dispatch(Scenario(5, 7, 1, "poly", poly="x^5 - x - 1"))
    assert cert.conclusion.kind == "cyclotomic_ring"
    assert cert.theorem == "symmetric_alternating_ring"
    cert = dispatch(Scenario(5, 7, 1, "poly", poly="x^5 + 20*x + 16"))
    assert cert.conclusion.kind == "cyclotomic_ring"
    # unresolvable polynomial: inconclusive, notes mention the probe
    cert = dispatch(Scenario(8, 5, 1, "poly", poly="x^8 + 1"))
    assert cert.conclusion.kind == "inconclusive"
    assert any("probe" in note for note in cert.notes)


def test_golden_certificates_byte_exact():
    for entry in fixture_entries():
        if entry["expect"].get("error"):
            continue
        cert = dispatch(scenario_from_dict(entry["scenario"]))
        golden = (GOLDEN / f"cert_{entry['name']}.json").read_text()
        assert certificate_to_json(cert) == golden, entry["name"]


def test_non_prime_characteristic_rejected():
    for group in ({"kind": "psl2", "ell": 6, "r": 2}, {"kind": "psl2", "ell": 4, "r": 2},
                  {"kind": "psu3", "ell": 6, "r": 1}):
        tag = scenario_from_dict({"n": 5, "p": 5, "group": group}).tag
        s = scenario_from_dict({"n": tag.n, "p": 5, "group": group})
        with pytest.raises(InvalidScenario, match=f"l = {group['ell']} must be prime"):
            dispatch(s)


SKIPPED = "not evaluated (earlier hypothesis failed)"


def _rows(checks):
    return [(c.anchor, c.kind, c.passed) + ((SKIPPED,) if c.detail == SKIPPED else ())
            for c in checks]


def test_coprime_order_route_skip_rows():
    s = Scenario(5, 11, 1, "custom", generators=A5)
    assert _rows(verdict._route_coprime_order(s, verdict._resolve_group(s))) == [
        ("base field contains a primitive 11-th root of unity", "assumed", False),
        ("group acts doubly transitively on the n roots", "computed", None, SKIPPED),
        ("p does not divide the group order", "computed", None, SKIPPED),
        ("no maximal subgroup index divides 4", "computed", None, SKIPPED),
    ]
    s = Scenario(5, 11, 1, "custom", generators=C5, assume_zeta=True)
    assert _rows(verdict._route_coprime_order(s, verdict._resolve_group(s))) == [
        ("base field contains a primitive 11-th root of unity", "assumed", True),
        ("group acts doubly transitively on the n roots", "computed", False),
        ("p does not divide the group order", "computed", None, SKIPPED),
        ("no maximal subgroup index divides 4", "computed", None, SKIPPED),
    ]


def test_index_criterion_route_skip_rows():
    s = Scenario(5, 11, 2, "custom", generators=A5)
    assert _rows(verdict._route_index_criterion(s, verdict._resolve_group(s))) == [
        ("base field contains a primitive 121-th root of unity", "assumed", False),
        ("heart of the permutation action is absolutely irreducible", "computed", None, SKIPPED),
        ("no maximal subgroup index divides 4", "computed", None, SKIPPED),
        ("either q divides n, or n = q + 1, or q does not divide n - 1, "
         "or the heart is very simple", "arithmetic", None, SKIPPED),
    ]
    # the cyclic heart splits over F_11, since 11 = 1 mod 5
    s = Scenario(5, 11, 1, "custom", generators=C5, assume_zeta=True)
    assert _rows(verdict._route_index_criterion(s, verdict._resolve_group(s))) == [
        ("base field contains a primitive 11-th root of unity", "assumed", True),
        ("heart of the permutation action is absolutely irreducible", "computed", False),
        ("no maximal subgroup index divides 4", "computed", None, SKIPPED),
        ("either n = p + 1, or p does not divide n - 1, or the heart is very simple",
         "arithmetic", None, SKIPPED),
    ]
    # F20's heart is absolutely simple (shortcut), but C5 has index 4
    s = Scenario(5, 7, 1, "custom", generators=F20, assume_zeta=True)
    assert _rows(verdict._route_index_criterion(s, verdict._resolve_group(s))) == [
        ("base field contains a primitive 7-th root of unity", "assumed", True),
        ("heart of the permutation action is absolutely irreducible", "computed", True),
        ("no maximal subgroup index divides 4", "computed", False),
        ("either n = p + 1, or p does not divide n - 1, or the heart is very simple",
         "arithmetic", None, SKIPPED),
    ]


def test_mathieu_degree_outside_the_family_is_invalid():
    with pytest.raises(InvalidScenario, match="M13 does not exist"):
        dispatch(scenario_from_dict({"n": 13, "p": 5, "group": {"kind": "mathieu"}}))


# the ranges the cited heart tables cover, stated here independently of the
# family records: Mortimer's table for M_n except M11 at p = 3, for PSL(2, q)
# with q > 11 and p != l or q = l = p, for U3(q) with q not in {2, 5}, p != l
# and p not dividing q + 1
ROUTE_TAGS = ([(GroupTag.mathieu(n), lambda t, p: not (t.n == 11 and p == 3))
               for n in (11, 12, 22, 23, 24)]
              + [(GroupTag.psl2(ell, r), lambda t, p: t.q > 11 and (p != t.ell or t.q == p))
                 for ell, r in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                                (2, 4), (5, 2), (3, 3))]
              + [(GroupTag.psu3(ell, r), lambda t, p: t.q not in (2, 5) and p != t.ell
                  and (t.q + 1) % p != 0)
                 for ell, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))])


def test_family_routes_conclude_exactly_where_the_tables_apply():
    covered = 0
    for tag, cited in ROUTE_TAGS:
        for p in (3, 5, 7, 11, 13):
            s = Scenario(tag.n, p, 1, "tag", tag)
            info = verdict._resolve_group(s)
            table = groups.family_heart_table(tag, p)
            assert table == cited(tag, p), (tag.describe(), p)
            route = verdict._route_family(s, info)
            assert all(c.passed is True for c in route) == table, (tag.describe(), p)
            kind, passed, _ = verdict._check_heart_abs_irred(s, info)
            assert (kind == "table" and passed is True) == table, (tag.describe(), p)
            cert = dispatch(s)
            if table:
                assert cert.theorem == tag.family.route + "_ring"
                assert cert.conclusion.kind == "cyclotomic_ring"
            covered += table
    assert covered == 54  # 24 Mathieu, 18 PSL2 and 12 U3 pairs
