"""The simplicity hierarchy as decision procedures over heart modules.

Verdict levels are ordered NOT_SIMPLE < SIMPLE < ABSOLUTELY_SIMPLE <
CENTRAL_SIMPLE < VERY_SIMPLE, with UNKNOWN for "no criterion applies";
a verdict always states the strongest level actually established and
carries the evidence items that establish it.

Central simplicity comes from the maximal-subgroup-index criterion
(sufficient, not necessary: absolutely irreducible module plus no proper
subgroup of index dividing the dimension). Very simplicity of alternating
and Mathieu hearts comes from the case analyses whose embedding
obstructions are recomputed here as order-divisibility facts; obstruction
checks are necessary conditions for an embedding and are only ever used
contrapositively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import modules
from .groups import (
    ALTERNATING,
    MATHIEU,
    MATHIEU_ORDERS,
    SYMMETRIC,
    GroupTag,
    PermGroup,
    TooLarge,
    exists_subgroup_of_index_dividing,
    family_heart_table,
    psl2_order,
    psl3_order,
)
from .weights import heart_dim


class Level(enum.IntEnum):
    UNKNOWN = 0
    NOT_SIMPLE = 1
    SIMPLE = 2
    ABSOLUTELY_SIMPLE = 3
    CENTRAL_SIMPLE = 4
    VERY_SIMPLE = 5


@dataclass(frozen=True)
class EvidenceItem:
    kind: str       # computation | table-fact | obstruction | diagnostic
    statement: str


@dataclass
class SimplicityVerdict:
    level: Level
    evidence: list[EvidenceItem] = field(default_factory=list)

    def attach(self, kind: str, statement: str) -> "SimplicityVerdict":
        self.evidence.append(EvidenceItem(kind, statement))
        return self


TARGET_ORDERS = {
    "PSL2": psl2_order,
    "PSL3": psl3_order,
}


def embedding_obstruction(order_g: int, target_family: str, p: int) -> bool:
    """True iff order_g divides |target(p)| (necessary for an embedding).

    A False answer certifies that no embedding of a group of this order
    into the target exists; a True answer certifies nothing.
    """
    total = TARGET_ORDERS[target_family](p)
    return total % order_g == 0


def abs_irred_shortcut(g: PermGroup, p: int) -> SimplicityVerdict | None:
    """Doubly transitive action with p coprime to |G|: heart is absolutely
    simple without any matrix work. Returns None when inapplicable."""
    if p % 2 == 0:
        raise ValueError("p must be odd")
    if not g.is_doubly_transitive():
        return None
    if g.order % p == 0:
        return None
    v = SimplicityVerdict(Level.ABSOLUTELY_SIMPLE)
    v.attach("computation", f"action is doubly transitive on {g.degree} points")
    v.attach("computation", f"p = {p} does not divide |G| = {g.order}")
    v.attach(
        "table-fact",
        "doubly transitive + order coprime to p forces an absolutely simple heart",
    )
    return v


def very_simple_alt(n: int, p: int) -> SimplicityVerdict:
    """Verdict for the heart of the alternating group of degree n over F_p.

    Very simple unless n = 5 with p = +-1 mod 5; in that exceptional case
    the verdict is central simple and any non-obvious normal subalgebra is
    a 2x2 matrix algebra (the tensor-split regime).
    """
    if n < 5:
        raise ValueError("degree must be >= 5")
    if p < 3:
        raise ValueError("p must be an odd prime")
    if n > 5:
        v = SimplicityVerdict(Level.VERY_SIMPLE)
        v.attach("table-fact", f"alternating degree {n} > 5: heart is very simple for every odd p")
        return v
    if p <= 5:
        v = SimplicityVerdict(Level.VERY_SIMPLE)
        v.attach("table-fact", f"degree 5 with p = {p} <= 5: heart is very simple")
        return v
    if p % 5 in (2, 3):
        v = SimplicityVerdict(Level.VERY_SIMPLE)
        divides = embedding_obstruction(60, "PSL2", p)
        v.attach(
            "obstruction",
            f"60 {'divides' if divides else 'does not divide'} |PSL(2,{p})| = {psl2_order(p)}; "
            "a non-obvious normal subalgebra would embed the group into PSL(2, F_p)",
        )
        if divides:
            v.attach("diagnostic", "divisibility obstruction unexpectedly passed; "
                                   "p = +-1 mod 5 congruence check disagrees")
        return v
    v = SimplicityVerdict(Level.CENTRAL_SIMPLE)
    v.attach(
        "table-fact",
        f"p = {p} is +-1 mod 5: the heart, pulled back to the binary icosahedral cover, "
        "splits as a tensor product of two 2-dim modules, so it is not very simple",
    )
    v.attach("table-fact", "every non-obvious normal subalgebra is a 2x2 matrix algebra")
    return v


# (n, p) -> the projective target the case analysis names, for every
# Mathieu degree n and odd prime p with n != p + 1 and p | n - 1
_MATHIEU_TARGETS = {(11, 5): "PSL2", (22, 3): "PSL3", (22, 7): "PSL3", (23, 11): "PSL2"}


def _mathieu_exceptional_very_simple(n: int, p: int) -> SimplicityVerdict | None:
    """Very simplicity for Mathieu hearts when n != p+1 and p | n-1.

    Each exceptional case is settled by recomputing an order-divisibility
    obstruction against the projective target named by the case analysis.
    """
    target = _MATHIEU_TARGETS.get((n, p))
    if target is None:
        return None
    order = MATHIEU_ORDERS[n]
    v = SimplicityVerdict(Level.VERY_SIMPLE)
    divides = embedding_obstruction(order, target, p)
    v.attach(
        "obstruction",
        f"|M{n}| = {order} does not divide |{target}({p})| = {TARGET_ORDERS[target](p)}; "
        "a non-obvious normal subalgebra would force such an embedding",
    )
    if divides:
        v.attach("diagnostic", f"divisibility obstruction failed to rule out M{n} -> {target}({p}); "
                               "case analysis does not apply as recorded")
        return None
    if n == 22:
        # the case analysis uses 11-divisibility; recompute rather than trust
        eleven_in_target = TARGET_ORDERS[target](p) % 11 == 0
        v.attach(
            "obstruction",
            f"11 divides |M22| but 11 {'divides' if eleven_in_target else 'does not divide'} "
            f"|PSL(3,{p})| = {psl3_order(p)}",
        )
        if eleven_in_target:
            v.attach("diagnostic", "recomputed 11-divisibility disagrees with the recorded case analysis")
    return v.attach("table-fact", f"M{n} heart is central simple for odd p"
                                  + (" > 3" if n == 11 else ""))


# the very-simplicity case analyses, by family; None from one means that the
# heart is only known central simple
_VERY_SIMPLE = {
    SYMMETRIC: lambda n, p: SimplicityVerdict(Level.VERY_SIMPLE).attach(
        "table-fact", f"symmetric degree {n} >= 5: heart is very simple for every odd p"),
    ALTERNATING: very_simple_alt,
    MATHIEU: _mathieu_exceptional_very_simple,
}


def decide_heart_simplicity(g: PermGroup | None, tag: GroupTag, p: int) -> SimplicityVerdict:
    """The cited family theorems first, else computation; UNKNOWN rather than
    a silent guess.

    A family tag inside the range of its cited heart table is answered from
    its record: by the family's very-simplicity case analysis, with
    recomputed obstructions, where it has one, else as central simple from
    the record's table facts. Everything else falls back to
    `_computed_verdict`, which needs a concrete group: g, or else the one
    the record builds.
    """
    if p < 3:
        raise ValueError("p must be an odd prime")
    family = tag.family
    if family is not None and family_heart_table(tag, p):
        v = _VERY_SIMPLE.get(family, lambda n, p: None)(tag.n, p)
        if v is not None:
            return v
        return SimplicityVerdict(Level.CENTRAL_SIMPLE, [
            EvidenceItem("table-fact", statement) for statement in family.central(tag, p)])
    if g is None and family is not None and family.concrete is not None:
        g = family.concrete(tag)
    if g is None:
        return SimplicityVerdict(Level.UNKNOWN).attach(
            "diagnostic", f"{tag.describe()} is outside the cited modular table "
                          "and no concrete group is given")
    return _computed_verdict(g, p)


def _computed_verdict(g: PermGroup, p: int) -> SimplicityVerdict:
    """NOT_SIMPLE, SIMPLE or ABSOLUTELY_SIMPLE for the heart of a concrete
    group, from the shortcut or else the heart's memo entry
    (`modules.judge_heart`); an absolutely simple heart is then put to the
    index criterion: no proper subgroup of index dividing the heart
    dimension makes it central simple."""
    v = abs_irred_shortcut(g, p)
    if v is None:
        judged = modules.judge_heart(g, p)
        if not judged.meataxe.irreducible:
            return SimplicityVerdict(Level.NOT_SIMPLE).attach(
                "computation", f"invariant subspace of dimension "
                f"{len(judged.meataxe.invariant_subspace)} inside the "
                f"{judged.module.dim}-dimensional heart")
        if judged.commutant != 1:
            return SimplicityVerdict(Level.SIMPLE).attach(
                "computation", f"heart irreducible but commutant has dimension "
                               f"{judged.commutant} > 1")
        v = SimplicityVerdict(Level.ABSOLUTELY_SIMPLE).attach(
            "computation", "heart irreducible with scalar commutant (computed)")
    n_bound = heart_dim(g.degree, p)
    try:
        exists, why, source = exists_subgroup_of_index_dividing(g, n_bound)
    except TooLarge as exc:
        return v.attach("diagnostic", f"index criterion unavailable: {exc}")
    if exists:
        return v.attach("diagnostic", f"some proper subgroup index divides {n_bound}; "
                                      "central simplicity undetermined by the index criterion")
    v.level = Level.CENTRAL_SIMPLE
    v.attach("table-fact" if source == "table" else "computation",
             f"no proper subgroup index divides {n_bound}: {why}")
    return v.attach("table-fact", "index criterion: absolutely irreducible + no index dividing dim "
                                  "=> every normal subalgebra is central simple")
