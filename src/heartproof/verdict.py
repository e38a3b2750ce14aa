"""The theorem dispatcher: scenario in, certified verdict out.

Routes are tried in a fixed order, family-specific theorems first:

    r = 1:  symmetric_alternating_ring, mathieu_ring,
            psl2_projective_line_ring, psu3_unital_ring,
            coprime_order_ring, index_criterion_ring
    r > 1:  symmetric_alternating_algebra, coprime_order_algebra,
            index_criterion_algebra

The first route whose hypotheses all pass supplies the conclusion; the
certificate records every hypothesis with its check kind and outcome, and
a conclusive certificate can never contain a failed check. Representation
facts about family-tagged groups come from the tables the theorems cite;
computation (MeatAxe, subgroup enumeration) is reserved for concrete
custom groups, plus cheap group-theoretic index facts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import perm, probe, simplicity
from .fields import PRIME_TEST_LIMIT, is_prime
from .groups import (
    GroupTag,
    PermGroup,
    SUBGROUP_ENUM_THRESHOLD,
    TooLarge,
    exists_subgroup_of_index_dividing,
    family_heart_table,
    mathieu_group,
    psl2_group,
    psl2_order,
    MATHIEU_ORDERS,
)
from .simplicity import Level
from .weights import heart_dim

SCHEMA_VERSION = 1


class InvalidScenario(ValueError):
    """Scenario violates n >= 5, p odd prime, or the divisibility hypothesis."""


@dataclass(frozen=True)
class Scenario:
    """One (n, p, r, group) question for the dispatcher.

    group_source is 'tag', 'custom' (explicit generators, cycle notation),
    or 'poly' (integer polynomial to probe). assume_zeta asserts that the
    base field contains a primitive q-th root of unity; for simple
    nonabelian family tags the dispatcher supplies that for free.
    """

    n: int
    p: int
    r: int = 1
    group_source: str = "tag"
    tag: GroupTag | None = None
    generators: tuple[str, ...] | None = None
    poly: str | None = None
    assume_zeta: bool = False
    seed: int = 0

    @property
    def q(self) -> int:
        return self.p**self.r

    def validate(self):
        if self.n < 5:
            raise InvalidScenario(f"degree n = {self.n} must be at least 5")
        if self.p >= PRIME_TEST_LIMIT:
            raise InvalidScenario(f"p = {self.p} is too large: primality is proven "
                                  f"only below {PRIME_TEST_LIMIT}")
        if self.p < 3 or not is_prime(self.p):
            raise InvalidScenario(f"p = {self.p} must be an odd prime")
        if self.r < 1:
            raise InvalidScenario(f"r = {self.r} must be at least 1")
        if self.n % self.p == 0 and self.n % self.q != 0:
            raise InvalidScenario(
                f"p = {self.p} divides n = {self.n} but q = {self.q} does not"
            )
        if self.group_source == "tag":
            if self.tag is None:
                raise InvalidScenario("tag scenario without a tag")
            if self.tag.n is not None and self.tag.n != self.n:
                raise InvalidScenario(
                    f"tag degree {self.tag.n} does not match n = {self.n}"
                )
            if self.tag.kind in ("psl2", "psu3") and not (
                    is_prime(self.tag.ell) and self.tag.r >= 1):
                raise InvalidScenario(
                    f"{self.tag.describe()}: l = {self.tag.ell} must be prime "
                    f"and r = {self.tag.r} at least 1"
                )
        elif self.group_source == "custom":
            if not self.generators:
                raise InvalidScenario("custom scenario without generators")
        elif self.group_source == "poly":
            if not self.poly:
                raise InvalidScenario("poly scenario without a polynomial")
        else:
            raise InvalidScenario(f"unknown group source {self.group_source!r}")

    def describe_group(self) -> str:
        if self.group_source == "tag":
            return self.tag.describe()
        if self.group_source == "custom":
            return "custom<" + "; ".join(self.generators) + ">"
        return f"poly<{self.poly}>"


@dataclass
class HypothesisCheck:
    anchor: str
    kind: str            # arithmetic | table | computed | assumed | given
    passed: bool | None  # None: not evaluated or undetermined
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.passed is not True


@dataclass
class EndoConclusion:
    kind: str  # cyclotomic_ring | cyclotomic_product_algebra | inconclusive
    fields: tuple[str, ...] = ()
    dimension_over_q: int | None = None


@dataclass
class Certificate:
    theorem: str
    scenario: Scenario
    checks: list[HypothesisCheck]
    conclusion: EndoConclusion
    notes: tuple[str, ...] = ()

    @property
    def first_failed(self) -> HypothesisCheck | None:
        for c in self.checks:
            if c.passed is not True:
                return c
        return None


SIMPLE_NONABELIAN_TAGS = ("alternating", "mathieu", "psl2", "psu3")


def _ring_conclusion(s: Scenario) -> EndoConclusion:
    return EndoConclusion("cyclotomic_ring", (f"Z[zeta_{s.p}]",), s.q - 1)


def _algebra_conclusion(s: Scenario) -> EndoConclusion:
    fields = tuple(f"Q(zeta_{s.p ** i})" for i in range(1, s.r + 1))
    return EndoConclusion("cyclotomic_product_algebra", fields, s.q - 1)


@dataclass
class _GroupInfo:
    """Resolved group material for one scenario."""

    tag: GroupTag
    concrete: PermGroup | None
    probe_evidence: probe.GaloisEvidence | None = None
    probe_failure: str | None = None


# custom groups recur across scenarios (fixtures, fuzzing); construction and
# what a group memoizes (its point stabilizer, that stabilizer's subgroup
# classes, its subgroup-index answers) are deterministic, so sharing is safe.
# The oldest entry goes first once the cache is full, so a long-lived caller
# does not keep every presentation it was ever given.
_CUSTOM_GROUP_CACHE: dict[tuple, PermGroup] = {}
_CUSTOM_GROUP_CACHE_SIZE = 32


def _resolve_group(s: Scenario) -> _GroupInfo:
    if s.group_source == "tag":
        return _GroupInfo(s.tag, _concrete_for_tag(s.tag))
    if s.group_source == "custom":
        key = (s.n, s.generators)
        g = _CUSTOM_GROUP_CACHE.get(key)
        if g is None:
            perms = [perm.parse_perm(x, s.n) for x in s.generators]
            if any(len(x) > s.n for x in perms):
                raise InvalidScenario("generator moves a point beyond n")
            g = PermGroup([perm.extend(x, s.n) for x in perms], degree=s.n,
                          tag=GroupTag.custom(s.n))
            if len(_CUSTOM_GROUP_CACHE) >= _CUSTOM_GROUP_CACHE_SIZE:
                del _CUSTOM_GROUP_CACHE[next(iter(_CUSTOM_GROUP_CACHE))]
            _CUSTOM_GROUP_CACHE[key] = g
        return _GroupInfo(g.tag, g)
    f = probe.parse_poly(s.poly)
    if f.degree != s.n:
        raise InvalidScenario(f"polynomial degree {f.degree} does not match n = {s.n}")
    ev = probe.classify_galois(f, prime_budget=40, seed=s.seed)
    resolved = ev.resolved_group
    if resolved == "symmetric":
        return _GroupInfo(GroupTag.symmetric(s.n), None, probe_evidence=ev)
    if resolved == "alternating":
        return _GroupInfo(GroupTag.alternating(s.n), None, probe_evidence=ev)
    return _GroupInfo(GroupTag.custom(s.n), None, probe_evidence=ev,
                      probe_failure=f"probe conclusion: {ev.conclusion}")


def _concrete_for_tag(tag: GroupTag) -> PermGroup | None:
    """A concrete group for cheap exact index facts, when small enough."""
    if tag.kind == "psl2" and tag.q >= 4 and psl2_order(tag.q) <= SUBGROUP_ENUM_THRESHOLD:
        return psl2_group(tag.ell, tag.r)
    if tag.kind == "mathieu" and MATHIEU_ORDERS.get(tag.n, 10**9) <= SUBGROUP_ENUM_THRESHOLD:
        return mathieu_group(tag.n)
    return None


# ---------------------------------------------------------------------------
# Hypothesis helpers
# ---------------------------------------------------------------------------

DOUBLY_TRANSITIVE = "group acts doubly transitively on the n roots"
COPRIME_ORDER = "p does not divide the group order"
HEART_ABS_IRRED = "heart of the permutation action is absolutely irreducible"


def _zeta_anchor(s: Scenario) -> str:
    return f"base field contains a primitive {s.q}-th root of unity"


def _index_anchor(bound: int) -> str:
    return f"no maximal subgroup index divides {bound}"


def _side_condition_anchor(s: Scenario) -> str:
    if s.r == 1:
        return "either n = p + 1, or p does not divide n - 1, or the heart is very simple"
    return ("either q divides n, or n = q + 1, or q does not divide n - 1, "
            "or the heart is very simple")


def _check_zeta(s: Scenario, info: _GroupInfo) -> HypothesisCheck:
    anchor = _zeta_anchor(s)
    if info.tag.kind in SIMPLE_NONABELIAN_TAGS:
        return HypothesisCheck(
            anchor, "table", True,
            "Galois image is simple nonabelian: adjoining the root of unity "
            "cannot shrink it, so the assumption is free")
    if s.assume_zeta:
        return HypothesisCheck(anchor, "assumed", True, "asserted by the caller")
    return HypothesisCheck(anchor, "assumed", False,
                           "not asserted and no enlargement argument applies")


def _check_doubly_transitive(info: _GroupInfo, n: int) -> HypothesisCheck:
    anchor = DOUBLY_TRANSITIVE
    tag = info.tag
    if tag.kind in ("symmetric", "alternating") and n >= 4:
        return HypothesisCheck(anchor, "table", True, f"{tag.describe()} is doubly transitive")
    if tag.kind == "mathieu":
        return HypothesisCheck(anchor, "table", True, f"M{n} on {n} points is doubly transitive")
    if tag.kind == "psl2":
        return HypothesisCheck(anchor, "table", True,
                               f"PSL(2,{tag.q}) on the projective line is doubly transitive")
    if tag.kind == "psu3":
        return HypothesisCheck(anchor, "table", True,
                               f"U3({tag.q}) on the Hermitian unital is doubly transitive")
    if info.concrete is not None:
        ok = info.concrete.is_doubly_transitive()
        return HypothesisCheck(anchor, "computed", ok,
                               "orbit on ordered pairs of distinct points "
                               + ("is full" if ok else "is not full"))
    return HypothesisCheck(anchor, "computed", None, "no concrete group to test")


def _check_p_coprime_order(s: Scenario, info: _GroupInfo) -> HypothesisCheck:
    order, kind = info.tag.family_order(), "table"
    if order is None and info.concrete is not None:
        order, kind = info.concrete.order, "computed"
    if order is None:
        return HypothesisCheck(COPRIME_ORDER, "computed", None, "group order unavailable")
    return HypothesisCheck(COPRIME_ORDER, kind, order % s.p != 0, f"|H| = {order}, p = {s.p}")


def _check_index_condition(s: Scenario, info: _GroupInfo, bound: int) -> HypothesisCheck:
    anchor = _index_anchor(bound)
    target = info.concrete if info.concrete is not None else info.tag
    try:
        exists, why, source = exists_subgroup_of_index_dividing(target, bound)
    except TooLarge as exc:
        return HypothesisCheck(anchor, "computed", None, str(exc))
    return HypothesisCheck(anchor, "table" if source == "table" else "computed", not exists, why)


def _heart_table_detail(tag: GroupTag, cited: bool) -> str:
    if tag.kind in ("symmetric", "alternating"):
        return f"{tag.describe()} heart is absolutely simple for every odd p"
    if tag.kind == "mathieu":
        return (f"M{tag.n} heart is absolutely simple for odd p (modular table)" if cited
                else "modular table for M11 is cited only for p > 3")
    if tag.kind == "psl2":
        return (f"PSL(2,{tag.q}) heart is absolutely simple (modular table)" if cited
                else "modular table cited only for q > 11 with p != l or q = l = p")
    return (f"U3({tag.q}) heart is absolutely simple for p != l, p not dividing q+1 "
            "(modular table)" if cited else "outside the cited modular table")


def _check_heart_abs_irred(s: Scenario, info: _GroupInfo) -> HypothesisCheck:
    """Representation fact: tables for family tags, computation for custom groups."""
    anchor = HEART_ABS_IRRED
    tag = info.tag
    if tag.kind != "custom":
        cited = family_heart_table(tag, s.p)
        return HypothesisCheck(anchor, "table", True if cited else None,
                               _heart_table_detail(tag, cited))
    if info.concrete is None:
        return HypothesisCheck(anchor, "computed", None, "no concrete group to test")
    v = simplicity.absolute_simplicity(info.concrete, s.p, s.seed)
    if v.level == Level.NOT_SIMPLE:
        return HypothesisCheck(anchor, "computed", False,
                               f"invariant subspace of dimension {len(v.witness_subspace)}")
    if v.commutant_dim is None:
        return HypothesisCheck(anchor, "computed", True,
                               "doubly transitive with order coprime to p (shortcut)")
    return HypothesisCheck(anchor, "computed", v.commutant_dim == 1,
                           f"irreducible by the MeatAxe; commutant dimension {v.commutant_dim}")


def _very_simple_fallback(s: Scenario, info: _GroupInfo) -> HypothesisCheck:
    anchor = "heart is very simple (fallback)"
    v = simplicity.decide_heart_simplicity(info.concrete, info.tag, s.p, seed=s.seed)
    if v.level == Level.VERY_SIMPLE:
        detail = "; ".join(e.statement for e in v.evidence)
        return HypothesisCheck(anchor, "table" if info.tag.kind != "custom" else "computed",
                               True, detail)
    return HypothesisCheck(anchor, "computed", None if v.level == Level.UNKNOWN else False,
                           f"strongest established level: {v.level.name}")


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def _run_steps(steps) -> list[HypothesisCheck]:
    """Evaluate (anchor, kind if skipped, check) steps up to the first check
    that does not pass; the steps after it are listed as not evaluated."""
    checks: list[HypothesisCheck] = []
    for anchor, skipped_kind, check in steps:
        if checks and checks[-1].failed:
            checks.append(HypothesisCheck(anchor, skipped_kind, None,
                                          "not evaluated (earlier hypothesis failed)"))
            continue
        checks.append(check())
        if checks[-1].anchor != anchor:
            raise AssertionError(f"check {checks[-1].anchor!r} ran as step {anchor!r}")
    return checks


def _route_symmetric_alternating(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind not in ("symmetric", "alternating"):
        return None
    checks = [HypothesisCheck("degree at least 5", "arithmetic", s.n >= 5, f"n = {s.n}")]
    anchor = "polynomial irreducible with full symmetric or alternating Galois group"
    ev = info.probe_evidence
    if ev is not None:
        checks.append(HypothesisCheck(
            anchor, "computed", True,
            f"probe: {ev.conclusion} (witness prime {ev.irreducible_witness}, "
            f"disc square: {ev.disc_is_square}) -> {info.tag.describe()}"))
    else:
        checks.append(HypothesisCheck(anchor, "given", True,
                                      f"supplied as {info.tag.describe()}"))
    if s.r > 1:
        checks.append(HypothesisCheck(
            "either p does not divide n or q divides n", "arithmetic",
            s.n % s.p != 0 or s.n % s.q == 0, f"n = {s.n}, p = {s.p}, q = {s.q}"))
    return checks


def _route_mathieu(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind != "mathieu" or s.r != 1:
        return None
    checks = [
        HypothesisCheck("degree is one of 11, 12, 22, 23, 24", "arithmetic",
                        s.n in MATHIEU_ORDERS, f"n = {s.n}"),
        _check_doubly_transitive(info, s.n),
        HypothesisCheck("p is an odd prime", "arithmetic", True, f"p = {s.p}"),
        HypothesisCheck("p > 3 when the degree is 11", "arithmetic",
                        s.n != 11 or s.p > 3, f"n = {s.n}, p = {s.p}"),
    ]
    return checks


def _route_psl2(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind != "psl2" or s.r != 1:
        return None
    q, ell = info.tag.q, info.tag.ell
    checks = [
        HypothesisCheck("n = q + 1 for the prime power q", "arithmetic",
                        s.n == q + 1, f"n = {s.n}, q = {q}"),
        HypothesisCheck("q exceeds 11", "arithmetic", q > 11, f"q = {q}"),
        HypothesisCheck("either p differs from the field characteristic or q = l = p",
                        "arithmetic", s.p != ell or q == ell == s.p,
                        f"p = {s.p}, l = {ell}, q = {q}"),
        _check_doubly_transitive(info, s.n),
        HypothesisCheck("point stabilizers are the Borel subgroups of index q + 1",
                        "table", True, "projective-line action"),
    ]
    return checks


def _route_psu3(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind != "psu3" or s.r != 1:
        return None
    q, ell = info.tag.q, info.tag.ell
    checks = [
        HypothesisCheck("n = q^3 + 1 for the prime power q", "arithmetic",
                        s.n == q**3 + 1, f"n = {s.n}, q = {q}"),
        HypothesisCheck("q is not 2 or 5", "arithmetic", q not in (2, 5), f"q = {q}"),
        HypothesisCheck("p differs from the field characteristic", "arithmetic",
                        s.p != ell, f"p = {s.p}, l = {ell}"),
        HypothesisCheck("p does not divide q + 1", "arithmetic",
                        (q + 1) % s.p != 0, f"q + 1 = {q + 1}, p = {s.p}"),
        _check_doubly_transitive(info, s.n),
        HypothesisCheck("point stabilizers are the Borel subgroups of index q^3 + 1",
                        "table", True, "Hermitian-unital action (recorded citation)"),
    ]
    return checks


def _route_coprime_order(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind in ("symmetric", "alternating"):
        return None  # covered by the dedicated family route
    return _run_steps([
        (_zeta_anchor(s), "assumed", lambda: _check_zeta(s, info)),
        (DOUBLY_TRANSITIVE, "computed", lambda: _check_doubly_transitive(info, s.n)),
        (COPRIME_ORDER, "computed", lambda: _check_p_coprime_order(s, info)),
        (_index_anchor(s.n - 1), "computed", lambda: _check_index_condition(s, info, s.n - 1)),
    ])


def _arithmetic_side_condition(s: Scenario, info: _GroupInfo,
                               allow_very_simple: bool) -> HypothesisCheck:
    """The side condition of the generic route, as a single hypothesis.

    For r = 1: either n = p + 1 or p does not divide n - 1. For r > 1 the
    modulus is q; when the p- and q-versions would disagree, the detail
    records it. When allowed, a very simple heart satisfies the hypothesis
    as the alternative branch of the theorem.
    """
    anchor = _side_condition_anchor(s)
    if s.r == 1:
        arith_ok = s.n == s.p + 1 or (s.n - 1) % s.p != 0
        detail = f"n = {s.n}, p = {s.p}"
    else:
        arith_ok = s.n % s.q == 0 or s.n == s.q + 1 or (s.n - 1) % s.q != 0
        detail = f"n = {s.n}, q = {s.q}"
        p_version = s.n == s.p + 1 or (s.n - 1) % s.p != 0
        if p_version != arith_ok:
            detail += (f"; modulus note: the p-version of this condition would "
                       f"{'pass' if p_version else 'fail'}")
    if arith_ok:
        return HypothesisCheck(anchor, "arithmetic", True, detail)
    if not allow_very_simple:
        return HypothesisCheck(anchor, "arithmetic", False, detail)
    vs = _very_simple_fallback(s, info)
    if vs.passed is True:
        return HypothesisCheck(anchor, vs.kind, True,
                               detail + "; arithmetic branch fails but the heart is "
                               "very simple: " + vs.detail)
    return HypothesisCheck(anchor, "arithmetic", False,
                           detail + "; very-simple branch also unavailable "
                           f"({vs.detail})")


def _route_index_criterion(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck] | None:
    if info.tag.kind in ("symmetric", "alternating"):
        return None
    n_bound = heart_dim(s.n, s.p)
    return _run_steps([
        (_zeta_anchor(s), "assumed", lambda: _check_zeta(s, info)),
        (HEART_ABS_IRRED, "computed", lambda: _check_heart_abs_irred(s, info)),
        (_index_anchor(n_bound), "computed", lambda: _check_index_condition(s, info, n_bound)),
        (_side_condition_anchor(s), "arithmetic",
         lambda: _arithmetic_side_condition(s, info, allow_very_simple=True)),
    ])


_RING_ROUTES = [
    ("symmetric_alternating_ring", _route_symmetric_alternating),
    ("mathieu_ring", _route_mathieu),
    ("psl2_projective_line_ring", _route_psl2),
    ("psu3_unital_ring", _route_psu3),
    ("coprime_order_ring", _route_coprime_order),
    ("index_criterion_ring", _route_index_criterion),
]

_ALGEBRA_ROUTES = [
    ("symmetric_alternating_algebra", _route_symmetric_alternating),
    ("coprime_order_algebra", _route_coprime_order),
    ("index_criterion_algebra", _route_index_criterion),
]


def dispatch(s: Scenario) -> Certificate:
    """Evaluate theorem routes in fixed order; first fully satisfied wins.

    Without a winner the certificate reports the first route attempted;
    either way a note names where each other attempted route failed.
    """
    s.validate()
    info = _resolve_group(s)
    routes = _RING_ROUTES if s.r == 1 else _ALGEBRA_ROUTES
    attempted: list[tuple[str, list[HypothesisCheck]]] = []
    notes: list[str] = []
    if info.probe_failure is not None:
        notes.append(f"galois probe could not certify the group: {info.probe_failure}")
    for name, route in routes:
        checks = route(s, info)
        if checks is not None:
            attempted.append((name, checks))
            if not any(c.failed for c in checks):
                break
    if not attempted:
        notes.append("no theorem route applies to this group source")
        return Certificate("none", s, [], EndoConclusion("inconclusive"), tuple(notes))
    name, checks = attempted[-1]
    if any(c.failed for c in checks):
        name, checks = attempted[0]
        conclusion = EndoConclusion("inconclusive")
    else:
        conclusion = _ring_conclusion(s) if s.r == 1 else _algebra_conclusion(s)
    for other_name, other_checks in attempted:
        if other_name != name:
            ff = next(c for c in other_checks if c.failed)
            notes.append(f"route {other_name} failed at: {ff.anchor}")
    return Certificate(name, s, checks, conclusion, tuple(notes))


def check_generic_route(s: Scenario, h: PermGroup) -> list[HypothesisCheck]:
    """The generic checklist for an explicit subgroup of the Galois group.

    Reports double transitivity, heart absolute irreducibility, the index
    condition, and the arithmetic side condition with the very-simple
    alternative recorded when the arithmetic branch fails. Informational:
    certificates come from dispatch.
    """
    s.validate()
    tag = s.tag if (s.group_source == "tag" and s.tag is not None) else GroupTag.custom(s.n)
    info = _GroupInfo(tag, h)
    checks = [
        _check_doubly_transitive(info, s.n),
        _check_heart_abs_irred(s, info),
        _check_index_condition(s, info, heart_dim(s.n, s.p)),
        _arithmetic_side_condition(s, info, allow_very_simple=True),
    ]
    return checks


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    group: dict = {"kind": s.group_source}
    if s.group_source == "tag":
        group["kind"] = s.tag.kind
        if s.tag.kind in ("psl2", "psu3"):
            group["ell"] = s.tag.ell
            group["r"] = s.tag.r
    elif s.group_source == "custom":
        group["generators"] = list(s.generators)
    else:
        group["poly"] = s.poly
    return {
        "n": s.n,
        "p": s.p,
        "r": s.r,
        "q": s.q,
        "group": group,
        "assume_zeta": s.assume_zeta,
        "seed": s.seed,
    }


def scenario_from_dict(d: dict) -> Scenario:
    group = d["group"]
    kind = group["kind"]
    common = dict(n=d["n"], p=d["p"], r=d.get("r", 1),
                  assume_zeta=d.get("assume_zeta", False), seed=d.get("seed", 0))
    if kind == "custom":
        return Scenario(group_source="custom",
                        generators=tuple(group["generators"]), **common)
    if kind == "poly":
        return Scenario(group_source="poly", poly=group["poly"], **common)
    if kind == "symmetric":
        tag = GroupTag.symmetric(d["n"])
    elif kind == "alternating":
        tag = GroupTag.alternating(d["n"])
    elif kind == "mathieu":
        tag = GroupTag.mathieu(d["n"])
    elif kind == "psl2":
        tag = GroupTag.psl2(group["ell"], group.get("r", 1))
    elif kind == "psu3":
        tag = GroupTag.psu3(group["ell"], group.get("r", 1))
    else:
        raise InvalidScenario(f"unknown group kind {kind!r}")
    return Scenario(group_source="tag", tag=tag, **common)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "theorem": cert.theorem,
        "scenario": scenario_to_dict(cert.scenario),
        "checks": [
            {"anchor": c.anchor, "kind": c.kind, "pass": c.passed, "detail": c.detail}
            for c in cert.checks
        ],
        "conclusion": {
            "kind": cert.conclusion.kind,
            "fields": list(cert.conclusion.fields),
            "dimension_over_q": cert.conclusion.dimension_over_q,
        },
        "notes": list(cert.notes),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def certificate_from_dict(d: dict) -> Certificate:
    scenario = scenario_from_dict(d["scenario"])
    checks = [HypothesisCheck(c["anchor"], c["kind"], c["pass"], c["detail"])
              for c in d["checks"]]
    conclusion = EndoConclusion(d["conclusion"]["kind"],
                                tuple(d["conclusion"]["fields"]),
                                d["conclusion"]["dimension_over_q"])
    return Certificate(d["theorem"], scenario, checks, conclusion, tuple(d["notes"]))


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_dict(json.loads(text))


def explain(cert: Certificate) -> str:
    """Stable human-readable report; every hypothesis anchor appears once."""
    s = cert.scenario
    lines = [
        f"scenario: n={s.n} p={s.p} r={s.r} q={s.q} group={s.describe_group()}",
        f"route: {cert.theorem}",
    ]
    for c in cert.checks:
        mark = "pass" if c.passed is True else ("FAIL" if c.passed is False else "open")
        lines.append(f"  [{mark}] {c.anchor} ({c.kind}): {c.detail}")
    conc = cert.conclusion
    if conc.kind == "cyclotomic_ring":
        lines.append(f"conclusion: endomorphism ring = {conc.fields[0]} "
                     f"(dimension {conc.dimension_over_q} over Q)")
    elif conc.kind == "cyclotomic_product_algebra":
        lines.append("conclusion: endomorphism algebra = " + " x ".join(conc.fields)
                     + f" (dimension {conc.dimension_over_q} over Q)")
    else:
        lines.append("conclusion: inconclusive")
        ff = cert.first_failed
        if ff is not None:
            lines.append(f"first failed hypothesis: {ff.anchor}")
    for note in cert.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
