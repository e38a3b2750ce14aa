"""Permutation groups given by generators.

Order, membership, orbits and elements come from one deterministic
Schreier-Sims stabilizer chain built eagerly at construction. Named
constructors cover the families the verdict engine quantifies over: S_n,
A_n, the five Mathieu groups (from bundled generator data), and PSL(2, q)
acting on the projective line.
What the engine knows about each named family (orders, doubly transitive
actions, index tables, the family theorem's hypotheses and the range of
the cited heart tables) is one `Family` record in FAMILIES.

Group files list one generator per line in 0-indexed cycle notation with
'#' comments.
"""

from __future__ import annotations

import importlib.resources
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache
from math import factorial, gcd

from . import perm
from .fields import ExtField, is_prime
from .perm import Perm
from .weights import heart_dim


class UnsupportedDegree(ValueError):
    """Raised for Mathieu degrees outside {11, 12, 22, 23, 24}."""


class InvalidField(ValueError):
    """Raised when a field parameter is not a prime power as required."""


class NotSubgroup(ValueError):
    """Raised when a claimed subgroup is not contained in the group."""


class TooLarge(ValueError):
    """Raised when a group's order exceeds SUBGROUP_ENUM_THRESHOLD, the cap on
    the searches that list elements: `PermGroup.elements`, `subgroup_classes`
    and the subgroup-index search of `exists_subgroup_of_index_dividing`."""


SUBGROUP_ENUM_THRESHOLD = 20000

# the field orders q = l^r of PSL2(q) and U3(q) tags stay below 2^MAX_Q_BITS
MAX_Q_BITS = 1024

MATHIEU_ORDERS = {
    11: 7920,
    12: 95040,
    22: 443520,
    23: 10200960,
    24: 244823040,
}


def field_order(ell: int, r: int) -> int:
    """q = l^r, refused above MAX_Q_BITS bits. For |l| >= 2 and r >= 1, q has
    more than r·(bitlen(l) − 1) bits, so a power that far out is refused
    before it is formed; any power formed has fewer than 2·MAX_Q_BITS bits."""
    if r >= 1 and (r * (abs(ell).bit_length() - 1) >= MAX_Q_BITS
                   or (ell**r).bit_length() > MAX_Q_BITS):
        power = f"{ell}^{r}" if r > 1 else f"{ell}"
        raise ValueError(f"q = {power} is above the limit MAX_Q_BITS = {MAX_Q_BITS}")
    return ell**r


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def psl3_order(q: int) -> int:
    return q**3 * (q**3 - 1) * (q * q - 1) // gcd(3, q - 1)


@dataclass(frozen=True)
class GroupTag:
    """Named family a group belongs to, or 'custom' for anonymous groups.

    kind is a key of FAMILIES, whose record holds what is known about the
    family, or 'custom'.
    """

    kind: str
    n: int | None = None
    ell: int | None = None
    r: int | None = None

    @property
    def q(self) -> int | None:
        if self.ell is None:
            return None
        return self.ell ** (self.r or 1)

    @staticmethod
    def symmetric(n: int) -> "GroupTag":
        return GroupTag("symmetric", n=n)

    @staticmethod
    def alternating(n: int) -> "GroupTag":
        return GroupTag("alternating", n=n)

    @staticmethod
    def mathieu(n: int) -> "GroupTag":
        return GroupTag("mathieu", n=n)

    @staticmethod
    def psl2(ell: int, r: int = 1) -> "GroupTag":
        return GroupTag("psl2", n=field_order(ell, r) + 1, ell=ell, r=r)

    @staticmethod
    def psu3(ell: int, r: int = 1) -> "GroupTag":
        return GroupTag("psu3", n=field_order(ell, r) ** 3 + 1, ell=ell, r=r)

    @staticmethod
    def custom(n: int | None = None) -> "GroupTag":
        return GroupTag("custom", n=n)

    @property
    def family(self) -> "Family | None":
        """The record of the tag's named family, None for custom groups."""
        return FAMILIES.get(self.kind)

    def describe(self) -> str:
        return self.family.name(self) if self.family is not None else "custom"


class _Level:
    __slots__ = ("base", "gens", "transversal", "verified")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {base: perm.identity(degree)}
        # Schreier pairs (orbit point, generator) already sifted clean; the
        # chain only grows, so a clean sift can never be invalidated.
        self.verified: set[tuple[int, Perm]] = set()


def _grow_transversal(t: dict[int, Perm], gens, cap: int | None = None) -> bool:
    """Extend the transversal t (point y -> element sending the root to y)
    breadth first to the whole orbit under gens, in FIFO order and never
    changing an existing representative. False, with t left partial, if
    the orbit has more than cap points."""
    queue = list(t)
    for x in queue:
        tx = t[x]
        for g in gens:
            y = g[x]
            if y not in t:
                if len(t) == cap:
                    return False
                t[y] = perm.mult(tx, g)
                queue.append(y)
    return True


class StabilizerChain:
    """Deterministic Schreier-Sims chain.

    Strong generators live at the deepest level whose earlier base points
    they all fix; the generating set of the k-th stabilizer subgroup is the
    union of the generator lists at levels >= k. Levels are completed
    bottom-up, dropping back whenever a Schreier residue inserts a new
    strong generator.

    base_order 'increasing' picks the smallest moved point as each new base
    point, 'decreasing' the largest; the two settings give independent
    chains for cross-checking orders.
    """

    def __init__(self, generators: list[Perm], degree: int, base_order: str = "increasing"):
        self.degree = degree
        self.base_order = base_order
        self.levels: list[_Level] = []
        for g in generators:
            if not perm.is_identity(g):
                self._insert(g)
        self._complete()

    def _choose_base(self, g: Perm) -> int:
        points = range(self.degree) if self.base_order == "increasing" else range(self.degree - 1, -1, -1)
        for i in points:
            if g[i] != i:
                return i
        raise AssertionError("identity has no moved point")

    def _insert(self, g: Perm) -> int:
        """Store g at the deepest level whose earlier bases it fixes."""
        j = 0
        while j < len(self.levels) and g[self.levels[j].base] == self.levels[j].base:
            j += 1
        if j == len(self.levels):
            self.levels.append(_Level(self._choose_base(g), self.degree))
        self.levels[j].gens.append(g)
        return j

    def _gens_for(self, k: int) -> list[Perm]:
        return [g for lv in self.levels[k:] for g in lv.gens]

    def strip(self, g: Perm, start: int = 0) -> tuple[int, Perm]:
        """Sift g through the chain; returns (failure level, residue)."""
        for k in range(start, len(self.levels)):
            lv = self.levels[k]
            x = g[lv.base]
            if x not in lv.transversal:
                return k, g
            g = perm.mult(g, perm.inverse(lv.transversal[x]))
        return len(self.levels), g

    def _complete(self):
        up = len(self.levels) - 1
        while up >= 0:
            lv = self.levels[up]
            gens = self._gens_for(up)
            # existing representatives never change, so a clean Schreier
            # sift in `verified` refers to the same element forever
            _grow_transversal(lv.transversal, gens)
            inserted_at = None
            for x in sorted(lv.transversal):
                tx = lv.transversal[x]
                for h in gens:
                    if (x, h) in lv.verified:
                        continue
                    schreier = perm.mult(perm.mult(tx, h), perm.inverse(lv.transversal[h[x]]))
                    _, residue = self.strip(schreier, up + 1)
                    if perm.is_identity(residue):
                        lv.verified.add((x, h))
                    else:
                        inserted_at = self._insert(residue)
                        break
                if inserted_at is not None:
                    break
            if inserted_at is None:
                up -= 1
            else:
                up = inserted_at

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.transversal)
        return n

    def contains(self, g: Perm) -> bool:
        if len(g) != self.degree:
            return False
        _, residue = self.strip(g)
        return perm.is_identity(residue)


class PermGroup:
    """Immutable permutation group with an eagerly built stabilizer chain."""

    def __init__(self, generators, degree: int | None = None, tag: GroupTag | None = None):
        gens = [tuple(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree required for a trivial group")
            degree = max(len(g) for g in gens)
        gens = [perm.extend(g, degree) for g in gens]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not perm.is_identity(g))
        self.tag = tag or GroupTag.custom(n=degree)
        self.chain = StabilizerChain(list(self.generators), degree)
        self.order = self.chain.order()
        self._elements: tuple[Perm, ...] | None = None
        self._stabilizer: PermGroup | None = None
        # subgroup index d -> generators of a witness, or None if there is none
        self._index_witnesses: dict[int, tuple[Perm, ...] | None] = {}
        # `subgroup_classes(self)`, once computed
        self._subgroup_classes: list[SubgroupClass] | None = None

    def __contains__(self, g) -> bool:
        return self.chain.contains(tuple(g))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order}, tag={self.tag.describe()})"

    def order_with_base(self, base_order: str) -> int:
        """Recompute the order with an independent stabilizer chain."""
        return StabilizerChain(list(self.generators), self.degree, base_order).order()

    def elements(self) -> tuple[Perm, ...]:
        """All elements, sorted, for small groups only. Each element is one
        product u_{k-1}...u_1 u_0 of transversal elements, u_i from level i
        of the chain, so the products list every element once."""
        if self._elements is None:
            if self.order > SUBGROUP_ENUM_THRESHOLD:
                raise TooLarge(f"group of order {self.order} exceeds element limit "
                               f"{SUBGROUP_ENUM_THRESHOLD}")
            elems = [perm.identity(self.degree)]
            for lv in reversed(self.chain.levels):
                elems = [perm.mult(h, u) for h in elems for u in lv.transversal.values()]
            self._elements = tuple(sorted(elems))
        return self._elements

    def base_point_stabilizer(self) -> "PermGroup":
        """G_b for the chain's first base point b, built once from the chain."""
        if self._stabilizer is None:
            self._stabilizer = PermGroup(self.chain._gens_for(1), degree=self.degree)
        return self._stabilizer

    def is_transitive(self) -> bool:
        """One orbit on the points: the orbit b0^G at level 0 of the chain
        has all of them. A chain without levels is the trivial group, which
        is transitive on one point only."""
        levels = self.chain.levels
        return len(levels[0].transversal) == self.degree if levels else self.degree == 1

    def is_doubly_transitive(self) -> bool:
        """G is 2-transitive on n >= 2 points exactly when it is transitive
        and the stabilizer G_b of one point b is transitive on the other
        n - 1 points. Level 1 of the chain is a complete chain for G_b0, b0
        the first base point, and its orbit lies in the points other than
        b0; so for n >= 3 that orbit must have n - 1 points (G_b0 is trivial
        when the chain has one level). For n = 2 transitivity is enough."""
        n, levels = self.degree, self.chain.levels
        return n >= 2 and self.is_transitive() and (
            n == 2 or len(levels) >= 2 and len(levels[1].transversal) == n - 1)


@cache
def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return PermGroup([], degree=1, tag=GroupTag.symmetric(1))
    gens = [perm.parse_perm("(0 1)", n)]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(gens, degree=n, tag=GroupTag.symmetric(n))


@cache
def alternating_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n < 3:
        return PermGroup([], degree=n, tag=GroupTag.alternating(n))
    three = perm.parse_perm("(0 1 2)", n)
    if n % 2 == 1:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return PermGroup([three, big], degree=n, tag=GroupTag.alternating(n))


@cache
def _load_mathieu_data() -> dict[int, list[str]]:
    text = importlib.resources.files("heartproof.data").joinpath("mathieu_generators.txt").read_text()
    out: dict[int, list[str]] = {}
    current: int | None = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[M") and line.endswith("]"):
            current = int(line[2:-1])
            out[current] = []
        else:
            if current is None:
                raise ValueError("generator line before group header in mathieu data")
            out[current].append(line)
    return out


@cache
def mathieu_group(n: int) -> PermGroup:
    """Mathieu group M_n from the bundled generator data, order-checked."""
    if n not in MATHIEU_ORDERS:
        raise UnsupportedDegree(f"no Mathieu group of degree {n}")
    data = _load_mathieu_data()
    gens = [perm.parse_perm(line, n) for line in data[n]]
    g = PermGroup(gens, degree=n, tag=GroupTag.mathieu(n))
    if g.order != MATHIEU_ORDERS[n]:
        raise AssertionError(
            f"bundled M{n} generators produce order {g.order}, expected {MATHIEU_ORDERS[n]}"
        )
    return g


@cache
def psl2_group(ell: int, r: int = 1) -> PermGroup:
    """PSL(2, q) acting by fractional-linear maps on P^1(F_q), q = ell^r >= 4.

    Points are indexed 0..q-1 by the canonical field-element encoding, with
    infinity last at index q. Generators are the unit transvections, plus
    transvections by the field generator when r > 1; the constructor checks
    the resulting order against q(q^2 - 1)/gcd(2, q - 1). A degree q + 1
    above perm.MAX_DEGREE is refused before anything is built.
    """
    perm.check_degree(field_order(ell, r) + 1)
    if not is_prime(ell):
        raise InvalidField(f"{ell} is not prime")
    field = ExtField(ell, r)
    q = field.q
    if q < 4:
        raise ValueError("q must be at least 4")
    inf = q

    def act(a: int, b: int, c: int, d: int) -> Perm:
        images = []
        for z in range(q):
            den = field.add(field.mul(c, z), d)
            num = field.add(field.mul(a, z), b)
            images.append(inf if den == 0 else field.mul(num, field.inv(den)))
        images.append(inf if c == 0 else field.mul(a, field.inv(c)))
        return tuple(images)

    one = 1
    gens = [act(one, one, 0, one), act(one, 0, one, one)]
    if r > 1:
        alpha = field._encode([0, 1])
        gens.append(act(one, alpha, 0, one))
        gens.append(act(one, 0, alpha, one))
    g = PermGroup(gens, degree=q + 1, tag=GroupTag.psl2(ell, r))
    expected = psl2_order(q)
    if g.order != expected:
        raise AssertionError(f"PSL(2,{q}) construction has order {g.order}, expected {expected}")
    return g


# ---------------------------------------------------------------------------
# Family records
# ---------------------------------------------------------------------------

DOUBLY_TRANSITIVE = "group acts doubly transitively on the n roots"

Row = tuple[str, str, bool, str]  # (anchor, check kind, passed, detail)


@dataclass(frozen=True, eq=False)
class Family:
    """What the engine knows about one named family of groups; routes,
    checks and the CLI read it instead of branching on the family name.

    `hypotheses(tag, p)` are the rows of the family theorem for an odd prime
    p, in the order its route lists them. Its arithmetic rows state the
    range of the cited heart table, and `family_heart_table` is their
    conjunction, so the route concludes exactly where the table applies. A
    'given' row is what the tag itself asserts.
    """

    kind: str
    route: str                       # the theorem's route, less _ring / _algebra
    algebra: bool                    # the theorem also holds for q = p^r, r > 1
    field: bool                      # the tag carries (l, r), q = l^r
    degrees: frozenset[int] | None   # the degrees that exist; None: any, or q's
    simple: Callable[[GroupTag], bool]  # simple nonabelian
    name: Callable[[GroupTag], str]
    order: Callable[[GroupTag], int]
    doubly_transitive: Callable[[GroupTag], str]
    # (known small indices, minimal index of any other proper subgroup)
    index_table: Callable[[GroupTag], tuple[frozenset[int], int] | None]
    hypotheses: Callable[[GroupTag, int], tuple[Row, ...]]
    heart: Callable[[GroupTag, bool], str]  # heart-table detail, cited or not
    # the table facts of a central simple heart, None where a very-simplicity
    # case analysis always answers
    central: Callable[[GroupTag, int], tuple[str, ...]] | None = None
    concrete: Callable[[GroupTag], PermGroup] | None = None  # None: table-only


def _doubly_transitive_row(t: GroupTag) -> Row:
    return DOUBLY_TRANSITIVE, "table", True, t.family.doubly_transitive(t)


def _min_index(t: GroupTag) -> int:
    return t.family.index_table(t)[1]


# S_n and A_n: heart absolutely simple for n >= 5 and every odd p; S_n
# splits as index 2 plus index >= n, A_n has minimal index n.
SYMMETRIC = Family(
    "symmetric", "symmetric_alternating", algebra=True, field=False, degrees=None,
    simple=lambda t: False,
    name=lambda t: f"S{t.n}",
    order=lambda t: factorial(t.n),
    doubly_transitive=lambda t: f"{t.describe()} is doubly transitive",
    index_table=lambda t: (frozenset({2}), t.n) if t.n >= 5 else None,
    hypotheses=lambda t, p: (
        ("degree at least 5", "arithmetic", t.n >= 5, f"n = {t.n}"),
        ("polynomial irreducible with full symmetric or alternating Galois group", "given",
         True, f"supplied as {t.describe()}"),
    ),
    heart=lambda t, cited: f"{t.describe()} heart is absolutely simple for every odd p",
    concrete=lambda t: symmetric_group(t.n),
)

ALTERNATING = replace(
    SYMMETRIC, kind="alternating", simple=lambda t: t.n >= 5,
    name=lambda t: f"A{t.n}",
    order=lambda t: factorial(t.n) // 2,
    index_table=lambda t: (frozenset(), t.n) if t.n >= 5 else None,
    concrete=lambda t: alternating_group(t.n),
)

# M_n: minimal index n; heart table from Mortimer's modular permutation
# representations of the known doubly transitive groups (Proc. LMS 41,
# 1980), cited except for M11 at p = 3.
MATHIEU = Family(
    "mathieu", "mathieu", algebra=False, field=False, degrees=frozenset(MATHIEU_ORDERS),
    simple=lambda t: True,
    name=lambda t: f"M{t.n}",
    order=lambda t: MATHIEU_ORDERS[t.n],
    doubly_transitive=lambda t: f"M{t.n} on {t.n} points is doubly transitive",
    index_table=lambda t: (frozenset(), t.n) if t.n in MATHIEU_ORDERS else None,
    hypotheses=lambda t, p: (
        ("degree is one of " + ", ".join(map(str, MATHIEU_ORDERS)), "arithmetic",
         t.n in MATHIEU_ORDERS, f"n = {t.n}"),
        _doubly_transitive_row(t),
        ("p is an odd prime", "arithmetic", True, f"p = {p}"),
        ("p > 3 when the degree is 11", "arithmetic", t.n != 11 or p > 3, f"n = {t.n}, p = {p}"),
    ),
    heart=lambda t, cited: (f"M{t.n} heart is absolutely simple for odd p (modular table)"
                            if cited else "modular table for M11 is cited only for p > 3"),
    central=lambda t, p: (
        f"M{t.n}: absolutely simple heart (modular table) and minimal subgroup index "
        f"{_min_index(t)} exceeds the heart dimension {heart_dim(t.n, p)}",),
    concrete=lambda t: mathieu_group(t.n),
)

# PSL(2, q): simple for q > 3; minimal index q + 1 for q > 11 (Suzuki's
# subgroup list, as cited); Mortimer's heart table for q > 11 with p != l or
# q = l = p.
PSL2 = Family(
    "psl2", "psl2_projective_line", algebra=False, field=True, degrees=None,
    simple=lambda t: t.q > 3,
    name=lambda t: f"PSL2({t.ell}^{t.r})" if (t.r or 1) > 1 else f"PSL2({t.ell})",
    order=lambda t: psl2_order(t.q),
    doubly_transitive=lambda t: f"PSL(2,{t.q}) on the projective line is doubly transitive",
    index_table=lambda t: (frozenset(), t.q + 1) if t.q > 11 else None,
    hypotheses=lambda t, p: (
        ("n = q + 1 for the prime power q", "arithmetic", t.n == t.q + 1,
         f"n = {t.n}, q = {t.q}"),
        ("q exceeds 11", "arithmetic", t.q > 11, f"q = {t.q}"),
        ("either p differs from the field characteristic or q = l = p", "arithmetic",
         p != t.ell or t.q == t.ell == p, f"p = {p}, l = {t.ell}, q = {t.q}"),
        _doubly_transitive_row(t),
        ("point stabilizers are the Borel subgroups of index q + 1", "table", True,
         "projective-line action"),
    ),
    heart=lambda t, cited: (f"PSL(2,{t.q}) heart is absolutely simple (modular table)" if cited
                            else "modular table cited only for q > 11 with p != l or q = l = p"),
    central=lambda t, p: (
        f"PSL(2,{t.q}) with q > 11: every proper subgroup has index >= {_min_index(t)} > "
        "heart dimension; heart absolutely simple (modular table)",),
    concrete=lambda t: psl2_group(t.ell, t.r),
)

# U_3(q) on the Hermitian unital: simple for q > 2 (U_3(2), of order 72, is
# solvable); minimal index q^3 + 1 for q not in {2, 5} (Mitchell's subgroup
# list); Mortimer's heart table for q not in {2, 5}, p != l and p not
# dividing q + 1. Both recorded as cited, not re-derived.
PSU3 = Family(
    "psu3", "psu3_unital", algebra=False, field=True, degrees=None,
    simple=lambda t: t.q > 2,
    name=lambda t: f"U3({t.q})",
    order=lambda t: t.q**3 * (t.q**3 + 1) * (t.q**2 - 1) // gcd(3, t.q + 1),
    doubly_transitive=lambda t: f"U3({t.q}) on the Hermitian unital is doubly transitive",
    index_table=lambda t: (frozenset(), t.q**3 + 1) if t.q not in (2, 5) else None,
    hypotheses=lambda t, p: (
        ("n = q^3 + 1 for the prime power q", "arithmetic", t.n == t.q**3 + 1,
         f"n = {t.n}, q = {t.q}"),
        ("q is not 2 or 5", "arithmetic", t.q not in (2, 5), f"q = {t.q}"),
        ("p differs from the field characteristic", "arithmetic", p != t.ell,
         f"p = {p}, l = {t.ell}"),
        ("p does not divide q + 1", "arithmetic", (t.q + 1) % p != 0,
         f"q + 1 = {t.q + 1}, p = {p}"),
        _doubly_transitive_row(t),
        ("point stabilizers are the Borel subgroups of index q^3 + 1", "table", True,
         "Hermitian-unital action (recorded citation)"),
    ),
    heart=lambda t, cited: (f"U3({t.q}) heart is absolutely simple for p != l, p not dividing "
                            "q+1 (modular table)" if cited else "outside the cited modular table"),
    central=lambda t, p: (
        f"U3({t.q}): heart absolutely simple for p != {t.ell}, p not dividing {t.q + 1} "
        "(modular table, recorded citation)",
        f"minimal subgroup index {_min_index(t)} exceeds the heart dimension "
        "(subgroup list, recorded citation)"),
)

FAMILIES = {f.kind: f for f in (SYMMETRIC, ALTERNATING, MATHIEU, PSL2, PSU3)}


def family_heart_table(tag: GroupTag, p: int) -> bool:
    """Does a cited table make the heart over F_p (p an odd prime) absolutely
    simple? The conjunction of the arithmetic rows of the family theorem;
    False means only that no table applies."""
    family = tag.family
    return family is not None and all(
        passed for _, kind, passed, _ in family.hypotheses(tag, p) if kind == "arithmetic")


def group_file_lines(text: str) -> list[str]:
    """The generator lines of a group file: one per line, '#' starts a comment."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("no generators in group file")
    return lines


def format_group_file(g: PermGroup) -> str:
    return "\n".join(perm.format_perm(p) for p in g.generators) + "\n"


# ---------------------------------------------------------------------------
# Subgroup search
# ---------------------------------------------------------------------------

@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: a representative and its size."""

    elements: frozenset
    gens: tuple[Perm, ...]
    class_size: int

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_classes(g: PermGroup) -> list[SubgroupClass]:
    """All subgroups up to conjugacy, by bottom-up cyclic extension.

    Every subgroup arises as <H, x> from some already-found H, so extending
    class representatives by right-coset representatives reaches every
    conjugacy class. Feasible for |G| <= the enumeration threshold; the
    result is memoised on g. Three callers remain: the subgroup-index search
    (on the point stabilizer G_b only), `modules.sl2f5_two_dim_reps`, and the
    tests, as the oracle for the index search.
    """
    if g.order > SUBGROUP_ENUM_THRESHOLD:
        raise TooLarge(f"|G| = {g.order} exceeds enumeration threshold "
                       f"{SUBGROUP_ENUM_THRESHOLD}")
    if g._subgroup_classes is not None:
        return g._subgroup_classes
    elements = list(g.elements())
    whole = frozenset(elements)
    ident = perm.identity(g.degree)

    seen: set[frozenset] = set()
    reps: list[SubgroupClass] = []

    def register(elems: frozenset, gens: tuple[Perm, ...]) -> bool:
        if elems in seen:
            return False
        # close the conjugacy class orbit under the group generators
        cls = {elems}
        queue = [elems]
        while queue:
            s = queue.pop()
            for c in g.generators:
                t = frozenset(perm.conjugate(x, c) for x in s)
                if t not in cls:
                    cls.add(t)
                    queue.append(t)
        seen.update(cls)
        reps.append(SubgroupClass(elems, gens, len(cls)))
        return True

    register(frozenset({ident}), ())
    for x in elements:
        if perm.is_identity(x):
            continue
        powers = [ident]
        for _ in range(perm.order(x) - 1):
            powers.append(perm.mult(powers[-1], x))
        register(frozenset(powers), (x,))

    i = 0
    while i < len(reps):
        rep = reps[i]
        i += 1
        if rep.order == g.order:
            continue
        covered = set(rep.elements)
        for x in elements:
            if x in covered:
                continue
            coset = {perm.mult(s, x) for s in rep.elements}
            covered.update(coset)
            new_gens = rep.gens + (x,)
            register(_join(rep.elements, new_gens, whole), new_gens)
            if len(seen) > 200000:
                raise TooLarge("subgroup lattice too large to enumerate")
    g._subgroup_classes = reps
    return reps


def _join(h: frozenset, gens: tuple[Perm, ...], whole: frozenset) -> frozenset:
    """The elements of <gens>, a subgroup of the group whole that contains
    the subgroup h, built as a union of right cosets h y: the union is the
    subgroup once it holds r g for every coset representative r and
    generator g. Past half of whole it can only be whole itself."""
    elems = set(h)
    reps = [perm.identity(len(gens[0]))]
    for r in reps:
        for g in gens:
            y = perm.mult(r, g)
            if y not in elems:
                elems.update(perm.mult(c, y) for c in h)
                if 2 * len(elems) > len(whole):
                    return whole
                reps.append(y)
    return frozenset(elems)


def exists_subgroup_of_index_dividing(g_or_tag, n_bound: int) -> tuple[bool, str, str]:
    """Is there a proper subgroup of index d with 1 < d and d | n_bound?

    Family tags answer from minimal-index tables. A concrete group of order
    at most the threshold is searched exactly, one divisor d at a time in
    ascending order, so a witness has the smallest qualifying index; a
    larger concrete group raises TooLarge. Index 1 never counts. Returns (answer,
    witness text, source), source being 'arithmetic', 'table' or
    'enumeration'. Answers are memoised per (group, d) on the group.

    The search rests on orbit-stabilizer counting. Let b be the first base
    point of the chain, Omega = b^G its orbit and G_b its stabilizer.

    Lemma. If H <= G has index d and its orbit through b has length m, then
    H_b = H & G_b has index d*m/|Omega| in G_b.
    Proof. |G : H_b| = |G : H| |H : H_b| = d*m, and also
    |G : H_b| = |G : G_b| |G_b : H_b| = |Omega| |G_b : H_b|.

    Conjugating H by an element of G_b keeps d and m, so H_b may be taken
    to be a class representative K of G_b of index e = d*m/|Omega|. H is
    the union of the cosets K h_y, one for each y in b^H, where h_y in H
    sends b to y; each is a coset K s t_y with s in G_b and t_y the chain's
    transversal element for y, and H holds all of it, its least element
    included. `_subgroup_of_index` grows K by such least elements x, for
    points y outside the current orbit, and keeps <K, x, ...> only while
    its stabilizer of b is K and its orbit length divides m; orbit length
    m then means index d. Nothing is missed: if a kept group C lies in such
    an H and its orbit is smaller, some y in b^H is outside b^C, the least
    element x of H_b h_y lies in H, and <C, x> is kept and lies in H. A
    kept group's orbit length is its index over K, so each step at least
    doubles the orbit and the depth is at most log2(m).
    """
    tag = g_or_tag.tag if isinstance(g_or_tag, PermGroup) else g_or_tag
    divisors = [d for d in range(2, n_bound + 1) if n_bound % d == 0]
    if not divisors:
        return False, "no divisor of the bound exceeds 1", "arithmetic"

    table = tag.family.index_table(tag) if tag.family is not None else None
    if table is not None:
        known, min_other = table
        hits = sorted(set(divisors) & known)
        if hits:
            return True, f"{tag.describe()} has a subgroup of index {hits[0]} (family table)", "table"
        if all(d < min_other for d in divisors):
            return False, (
                f"every proper subgroup of {tag.describe()} has index in "
                f"{sorted(known) or '{}'} or >= {min_other}; no divisor of {n_bound} qualifies"
            ), "table"
        # divisors at or above the minimal index: table alone cannot decide

    if isinstance(g_or_tag, PermGroup):
        g = g_or_tag
        if g.order > SUBGROUP_ENUM_THRESHOLD:
            raise TooLarge(
                f"|G| = {g.order} exceeds enumeration threshold and no table applies"
            )
        for d in divisors:
            if d not in g._index_witnesses:
                g._index_witnesses[d] = _subgroup_of_index(g, d)
            witness = g._index_witnesses[d]
            if witness is not None:
                gens = ", ".join(perm.format_perm(p) for p in witness) or "()"
                return (True, f"subgroup of order {g.order // d}, index {d}, generated by {gens}",
                        "enumeration")
        return (False, f"exhaustive enumeration: no proper subgroup index divides {n_bound}",
                "enumeration")
    raise TooLarge("no concrete group available and the family table is inconclusive")


def _subgroup_of_index(g: PermGroup, d: int) -> tuple[Perm, ...] | None:
    """Generators of a subgroup of index d in g, or None if there is none:
    the search of `exists_subgroup_of_index_dividing`."""
    if g.order % d:
        return None
    level = g.chain.levels[0]
    b, omega = level.base, level.transversal
    stab = g.base_point_stabilizer()
    classes = subgroup_classes(stab)
    for m in range(1, len(omega) + 1):
        for k in classes:
            # |G_b : K| = d * m / |Omega|
            if k.order * d * m == stab.order * len(omega):
                found = _grow_to_orbit(k, stab, b, omega, m)
                if found is not None:
                    return found
    return None


def _grow_to_orbit(k: SubgroupClass, stab: PermGroup, b: int, omega: dict[int, Perm],
                   m: int) -> tuple[Perm, ...] | None:
    """Generators of some H >= K with H_b = K and |b^H| = m, or None.

    Depth-first over the least elements x of the cosets K s t_y (s in G_b,
    y outside the current orbit); a group kept once is not searched again.
    """
    cosets: list[list[Perm]] = []
    covered: set[Perm] = set()
    for s in stab.elements():
        if s not in covered:
            cosets.append([perm.mult(c, s) for c in k.elements])
            covered.update(cosets[-1])
    least: dict[int, list[Perm]] = {}
    seen: set[frozenset] = set()

    def extend(gens: tuple[Perm, ...], orbit) -> tuple[Perm, ...] | None:
        if len(orbit) == m:
            return gens
        for y in sorted(omega.keys() - orbit):
            if y not in least:
                least[y] = sorted(min(perm.mult(c, omega[y]) for c in coset) for coset in cosets)
            for x in least[y]:
                grown = gens + (x,)
                reps = _orbit_over_stabilizer(grown, b, k.elements, m)
                if reps is None or m % len(reps):
                    continue
                key = frozenset(min(perm.mult(c, u) for c in k.elements) for u in reps.values())
                if key in seen:
                    continue
                seen.add(key)
                found = extend(grown, reps.keys())
                if found is not None:
                    return found
        return None

    return extend(k.gens, {b})


def _orbit_over_stabilizer(gens: tuple[Perm, ...], b: int, k: frozenset,
                           m: int) -> dict[int, Perm] | None:
    """Orbit of b under H = <gens> with a transversal u, if the orbit has at
    most m points and H_b is k, a subgroup of G_b generated by some of gens;
    else None. By Schreier's lemma H_b is generated by the u_z x u_{z^x}^-1,
    so H_b = k exactly when all of them lie in k."""
    reps = {b: perm.identity(len(gens[0]))}
    if not _grow_transversal(reps, gens, m):
        return None
    inverses = {z: perm.inverse(u) for z, u in reps.items()}
    for z, u in reps.items():
        for x in gens:
            if perm.mult(perm.mult(u, x), inverses[x[z]]) not in k:
                return None
    return reps


def coset_action(g: PermGroup, h: PermGroup) -> PermGroup:
    """Action of g on the cosets of the subgroup h, kernel = core of h.

    Cosets are indexed in discovery order from the identity coset; the
    canonical key of a coset is its lexicographically smallest element, so
    the construction is deterministic.
    """
    for x in h.generators:
        if perm.extend(x, g.degree) not in g:
            raise NotSubgroup("claimed subgroup generator lies outside the group")
    h_elems = [perm.extend(x, g.degree) for x in h.elements()]

    def coset_key(x: Perm) -> Perm:
        return min(perm.mult(s, x) for s in h_elems)

    ident = perm.identity(g.degree)
    start = coset_key(ident)
    index = {start: 0}
    reps = [start]
    queue = [start]
    while queue:
        x = queue.pop(0)
        for gen in g.generators:
            y = coset_key(perm.mult(x, gen))
            if y not in index:
                index[y] = len(reps)
                reps.append(y)
                queue.append(y)
    images = []
    for gen in g.generators:
        images.append(tuple(index[coset_key(perm.mult(x, gen))] for x in reps))
    return PermGroup(images, degree=len(reps), tag=GroupTag.custom(n=len(reps)))
