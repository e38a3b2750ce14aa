"""The theorem dispatcher: scenario in, certified verdict out.

Routes are tried in a fixed order, named with _ring for r = 1 and
_algebra for r > 1: first the family theorem, whose route name and
hypothesis rows the tag's `groups.Family` record holds (for r > 1 only
where the record says the theorem covers it), then coprime_order and
index_criterion. The first route whose hypotheses all pass supplies the
conclusion; the certificate records every hypothesis with its check kind
and outcome, and a conclusive certificate can never contain a failed
check. Routes own their anchors: the family route reads its rows from the
record, and each generic route writes its anchors once, in its step list,
while its checks return only (kind, passed, detail). Facts about
family-tagged groups are read from their records and the tables those
cite, never from a branch on the family name; computation (MeatAxe,
subgroup enumeration) is reserved for concrete custom groups, plus cheap
group-theoretic index facts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import modules, perm, probe, simplicity
from .fields import PRIME_TEST_LIMIT, is_prime
from .groups import (
    DOUBLY_TRANSITIVE,
    FAMILIES,
    GroupTag,
    PermGroup,
    SUBGROUP_ENUM_THRESHOLD,
    TooLarge,
    exists_subgroup_of_index_dividing,
    family_heart_table,
)
from .simplicity import Level
from .weights import MAX_R, heart_dim

SCHEMA_VERSION = 1


class InvalidScenario(ValueError):
    """Scenario violates n >= 5, p odd prime, the divisibility hypothesis, or
    names a family group that does not exist."""


@dataclass(frozen=True)
class Scenario:
    """One (n, p, r, group) question for the dispatcher.

    group_source is 'tag', 'custom' (explicit generators, cycle notation),
    or 'poly' (integer polynomial to probe). assume_zeta asserts that the
    base field contains a primitive q-th root of unity; for simple
    nonabelian family tags the dispatcher supplies that for free. seed is
    recorded in the certificate; no route reads it.
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
    parsed_poly: probe.PolyZ | None = field(default=None, compare=False, repr=False)

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
        if self.r > MAX_R:
            raise InvalidScenario(f"r = {self.r} is above the limit MAX_R = {MAX_R}")
        if self.n % self.p == 0 and self.n % self.q != 0:
            raise InvalidScenario(
                f"p = {self.p} divides n = {self.n} but q = {self.q} does not"
            )
        if self.group_source == "tag":
            family = self.tag.family if self.tag is not None else None
            if family is None:
                raise InvalidScenario("tag scenario without a named group family")
            if self.tag.n != self.n:
                raise InvalidScenario(f"tag degree {self.tag.n} does not match n = {self.n}")
            if family.field and not (is_prime(self.tag.ell) and self.tag.r >= 1):
                raise InvalidScenario(
                    f"{self.tag.describe()}: l = {self.tag.ell} must be prime "
                    f"and r = {self.tag.r} at least 1"
                )
            if family.degrees is not None and self.tag.n not in family.degrees:
                raise InvalidScenario(
                    f"{self.tag.describe()} does not exist: the degree must be one of "
                    + ", ".join(map(str, sorted(family.degrees))))
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


def custom_group(generators: tuple[str, ...], n: int | None = None) -> PermGroup:
    """The group of the generators (cycle notation) on n points, or on the points
    they move for n = None, a group that also serves n = its degree; cached."""
    g = _custom_group_on(generators, None)
    return g if n in (None, g.degree) else _custom_group_on(generators, n)


# custom groups recur across scenarios (fixtures, fuzzing); construction and
# what a group memoizes (point stabilizer, subgroup classes, index answers)
# are deterministic, so sharing is safe. n = the degree shares the n = None
# entry, so the 21 group files of an analyze-groups round fit in 32 entries.
@lru_cache(maxsize=32)
def _custom_group_on(generators: tuple[str, ...], n: int | None) -> PermGroup:
    perms = [perm.parse_perm(x, n or 0) for x in generators]
    degree = max(map(len, perms))
    if n not in (None, degree):
        raise InvalidScenario("generator moves a point beyond n")
    return PermGroup(perms, degree, GroupTag.custom(degree))


def _resolve_group(s: Scenario) -> _GroupInfo:
    if s.group_source == "tag":
        return _GroupInfo(s.tag, _concrete_for_tag(s.tag))
    if s.group_source == "custom":
        g = custom_group(s.generators, s.n)
        return _GroupInfo(g.tag, g)
    f = s.parsed_poly or probe.parse_poly(s.poly)
    if f.degree != s.n:
        raise InvalidScenario(f"polynomial degree {f.degree} does not match n = {s.n}")
    ev = probe.classify_galois(f, prime_budget=40)
    if ev.resolved_group is not None:
        return _GroupInfo(GroupTag(ev.resolved_group, n=s.n), None, probe_evidence=ev)
    return _GroupInfo(GroupTag.custom(s.n), None, probe_evidence=ev,
                      probe_failure=f"probe conclusion: {ev.conclusion}")


def _concrete_for_tag(tag: GroupTag) -> PermGroup | None:
    """A concrete group for cheap exact index facts, when small enough."""
    family = tag.family
    if family.concrete is None or family.order(tag) > SUBGROUP_ENUM_THRESHOLD:
        return None
    return family.concrete(tag)


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

Check = tuple[str, bool | None, str]  # (kind, passed, detail): a `groups.Row` less its anchor


def _check_zeta(s: Scenario, info: _GroupInfo) -> Check:
    if info.tag.family is not None and info.tag.family.simple(info.tag):
        return ("table", True, "Galois image is simple nonabelian: adjoining the root of "
                "unity cannot shrink it, so the assumption is free")
    if s.assume_zeta:
        return "assumed", True, "asserted by the caller"
    return "assumed", False, "not asserted and no enlargement argument applies"


def _check_doubly_transitive(info: _GroupInfo) -> Check:
    tag = info.tag
    if tag.family is not None:
        return "table", True, tag.family.doubly_transitive(tag)
    if info.concrete is not None:
        ok = info.concrete.is_doubly_transitive()
        return ("computed", ok, "orbit on ordered pairs of distinct points "
                + ("is full" if ok else "is not full"))
    return "computed", None, "no concrete group to test"


def _check_p_coprime_order(s: Scenario, info: _GroupInfo) -> Check:
    if info.tag.family is not None:
        order, kind = info.tag.family.order(info.tag), "table"
    elif info.concrete is not None:
        order, kind = info.concrete.order, "computed"
    else:
        return "computed", None, "group order unavailable"
    return kind, order % s.p != 0, f"|H| = {order}, p = {s.p}"


def _check_index_condition(info: _GroupInfo, bound: int) -> Check:
    target = info.concrete if info.concrete is not None else info.tag
    try:
        exists, why, source = exists_subgroup_of_index_dividing(target, bound)
    except TooLarge as exc:
        return "computed", None, str(exc)
    return "table" if source == "table" else "computed", not exists, why


def _check_heart_abs_irred(s: Scenario, info: _GroupInfo) -> Check:
    """Representation fact: tables for family tags, else the
    `absolute_simplicity` verdict of a custom group."""
    tag = info.tag
    if tag.family is not None:
        cited = family_heart_table(tag, s.p)
        return "table", True if cited else None, tag.family.heart(tag, cited)
    if info.concrete is None:
        return "computed", None, "no concrete group to test"
    try:
        absolute = simplicity.absolute_simplicity(info.concrete, s.p)
    except modules.RandomnessExhausted as exc:
        return "computed", None, str(exc)
    if absolute.level == Level.NOT_SIMPLE:
        return ("computed", False,
                f"invariant subspace of dimension {len(absolute.witness_subspace)}")
    if absolute.commutant_dim is None:
        return "computed", True, "doubly transitive with order coprime to p (shortcut)"
    return ("computed", absolute.commutant_dim == 1,
            f"irreducible by the MeatAxe; commutant dimension {absolute.commutant_dim}")


def _arithmetic_side_condition(s: Scenario, info: _GroupInfo) -> Check:
    """The side condition of the generic route, as a single hypothesis.

    For r = 1: either n = p + 1 or p does not divide n - 1. For r > 1 the
    modulus is q; when the p- and q-versions would disagree, the detail
    records it. Otherwise a very simple heart satisfies the hypothesis as
    the alternative branch of the theorem; the heart row's MeatAxe verdict
    is then a memo lookup.
    """
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
        return "arithmetic", True, detail
    v = simplicity.decide_heart_simplicity(info.concrete, info.tag, s.p)
    if v.level == Level.VERY_SIMPLE:
        return ("table" if info.tag.family is not None else "computed", True,
                detail + "; arithmetic branch fails but the heart is very simple: "
                + "; ".join(e.statement for e in v.evidence))
    return ("arithmetic", False, detail + "; very-simple branch also unavailable "
            f"(strongest established level: {v.level.name})")


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def _run_steps(steps) -> list[HypothesisCheck]:
    """Evaluate (anchor, kind if skipped, check) steps up to the first check
    that does not pass; the steps after it are listed as not evaluated.

    A route's step list is the only place its anchors are written: each
    check returns (kind, passed, detail) and the anchor is attached here.
    """
    checks: list[HypothesisCheck] = []
    for anchor, skipped_kind, check in steps:
        if checks and checks[-1].failed:
            checks.append(HypothesisCheck(anchor, skipped_kind, None,
                                          "not evaluated (earlier hypothesis failed)"))
        else:
            checks.append(HypothesisCheck(anchor, *check()))
    return checks


def _route_family(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck]:
    """The theorem of the tag's family: every row of its record, all of them
    evaluated, so the route concludes exactly where the cited heart table
    covers (tag, p). The row the tag supplies is computed when the Galois
    probe supplied the tag; for r > 1 the theorem also asks that p not
    divide n or q divide n."""
    tag, ev = info.tag, info.probe_evidence
    checks = []
    for anchor, kind, passed, detail in tag.family.hypotheses(tag, s.p):
        if kind == "given" and ev is not None:
            kind, detail = "computed", (
                f"probe: {ev.conclusion} (witness prime {ev.irreducible_witness}, "
                f"disc square: {ev.disc_is_square}) -> {tag.describe()}")
        checks.append(HypothesisCheck(anchor, kind, passed, detail))
    if s.r > 1:
        checks.append(HypothesisCheck(
            "either p does not divide n or q divides n", "arithmetic",
            s.n % s.p != 0 or s.n % s.q == 0, f"n = {s.n}, p = {s.p}, q = {s.q}"))
    return checks


def _route_coprime_order(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck]:
    return _run_steps([
        (f"base field contains a primitive {s.q}-th root of unity", "assumed",
         lambda: _check_zeta(s, info)),
        (DOUBLY_TRANSITIVE, "computed", lambda: _check_doubly_transitive(info)),
        ("p does not divide the group order", "computed",
         lambda: _check_p_coprime_order(s, info)),
        (f"no maximal subgroup index divides {s.n - 1}", "computed",
         lambda: _check_index_condition(info, s.n - 1)),
    ])


def _route_index_criterion(s: Scenario, info: _GroupInfo) -> list[HypothesisCheck]:
    n_bound = heart_dim(s.n, s.p)
    return _run_steps([
        (f"base field contains a primitive {s.q}-th root of unity", "assumed",
         lambda: _check_zeta(s, info)),
        ("heart of the permutation action is absolutely irreducible", "computed",
         lambda: _check_heart_abs_irred(s, info)),
        (f"no maximal subgroup index divides {n_bound}", "computed",
         lambda: _check_index_condition(info, n_bound)),
        ("either n = p + 1, or p does not divide n - 1, or the heart is very simple"
         if s.r == 1 else
         "either q divides n, or n = q + 1, or q does not divide n - 1, or the heart is very simple",
         "arithmetic", lambda: _arithmetic_side_condition(s, info)),
    ])


_GENERIC_ROUTES = [
    ("coprime_order", _route_coprime_order),
    ("index_criterion", _route_index_criterion),
]


def dispatch(s: Scenario) -> Certificate:
    """Evaluate theorem routes in fixed order; first fully satisfied wins.

    Without a winner the certificate reports the first route attempted;
    either way a note names where each other attempted route failed.
    """
    s.validate()
    info = _resolve_group(s)
    family = info.tag.family
    routes = list(_GENERIC_ROUTES)
    if family is not None and (s.r == 1 or family.algebra):
        routes.insert(0, (family.route, _route_family))
    suffix = "_ring" if s.r == 1 else "_algebra"
    attempted: list[tuple[str, list[HypothesisCheck]]] = []
    notes: list[str] = []
    if info.probe_failure is not None:
        notes.append(f"galois probe could not certify the group: {info.probe_failure}")
    for name, route in routes:
        checks = route(s, info)
        attempted.append((name + suffix, checks))
        if not any(c.failed for c in checks):
            break
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


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    group: dict = {"kind": s.group_source}
    if s.group_source == "tag":
        group["kind"] = s.tag.kind
        if s.tag.ell is not None:
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
    family = FAMILIES.get(kind)
    if family is None:
        raise InvalidScenario(f"unknown group kind {kind!r}")
    make = getattr(GroupTag, kind)  # each family's constructor is named after its kind
    tag = make(group["ell"], group.get("r", 1)) if family.field else make(d["n"])
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
