"""Facts the benchmark checks heartproof's outputs against, each with its source.

Nothing in this module imports heartproof or reads a stored copy of its
output. Group facts come from the ATLAS or the literature; the simplicity
levels are the ones the family theorems state. `test_benchmark.py`
cross-checks the orders and the double transitivity against
`sympy.combinatorics` when sympy is installed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, gcd

ATLAS = "ATLAS of Finite Groups (Conway, Curtis, Norton, Parker, Wilson, 1985)"
FROBENIUS = ("AGL(1,l) = l:(l-1) is sharply 2-transitive; its maximal subgroups are "
             "l:((l-1)/r), index r, for each prime r | l-1, and the complement l-1, "
             "index l (Dixon and Mortimer, Permutation Groups, 1996, sec. 7.7)")


@dataclass(frozen=True)
class GroupFacts:
    """Order, double transitivity and maximal-subgroup indices of one action."""

    degree: int
    order: int
    doubly_transitive: bool
    maximal_indices: tuple[int, ...]
    source: str

    def index_divides(self, bound: int) -> bool:
        """Does some proper subgroup have index d > 1 with d | bound?

        A proper subgroup of index d lies in a maximal one whose index
        divides d, so testing the maximal indices answers this.
        """
        return any(bound % d == 0 for d in self.maximal_indices)

    def coprime_order_hypotheses(self, p: int) -> bool:
        """Hypotheses of the paper's theorem, the root of unity assumed."""
        return (self.doubly_transitive and self.order % p != 0
                and not self.index_divides(self.degree - 1))


# Keys are the names the analyze-groups workload writes; the generators
# themselves live in workloads.py.
GROUP_FACTS: dict[str, GroupFacts] = {
    "A5": GroupFacts(5, 60, True, (5, 6, 10),
                     ATLAS + ", A5: maximal A4, D10, S3"),
    "S5": GroupFacts(5, 120, True, (2, 5, 6, 10),
                     ATLAS + ", A5.2 = S5: maximal A5, S4, 5:4, S3x2"),
    "AGL(1,5)": GroupFacts(5, 20, True, (2, 5), FROBENIUS),
    "AGL(1,7)": GroupFacts(7, 42, True, (2, 3, 7), FROBENIUS),
    "PSL2(7)": GroupFacts(8, 168, True, (7, 8),
                          ATLAS + ", L2(7): maximal S4, S4, 7:3"),
    "PSL2(8)": GroupFacts(9, 504, True, (9, 28, 36),
                          ATLAS + ", L2(8): maximal 2^3:7, D18, D14"),
    "PSL2(9)": GroupFacts(10, 360, True, (6, 10, 15),
                          ATLAS + ", A6 = L2(9): maximal A5, A5, 3^2:4, S4, S4"),
    "PSL2(11)": GroupFacts(12, 660, True, (11, 12, 55),
                           ATLAS + ", L2(11): maximal A5, A5, 11:5, D12, A4"),
    # named families the analyze-groups workload passes by tag
    "PSL2(13)": GroupFacts(14, 1092, True, (14, 78, 91),
                           ATLAS + ", L2(13): maximal 13:6, D14, D12, A4"),
    "M11": GroupFacts(11, 7920, True, (11, 12, 55, 66, 165),
                      ATLAS + ", M11: maximal M10, L2(11), M9:2, S5, 2S4"),
}

# ATLAS orders of M11, M12, M22, M23, M24
MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}

MORTIMER = ("Mortimer, The modular permutation representations of the known doubly "
            "transitive groups, Proc. LMS 41 (1980): the heart is absolutely simple")
INDEX_CRITERION = ("index criterion of the source paper (arXiv:2305.12022): an absolutely "
                   "simple heart with no proper subgroup of index dividing its dimension "
                   "is central simple")


@dataclass(frozen=True)
class HeartFacts:
    """What the family theorems say about one heart-family request."""

    degree: int
    order: int
    heart_dim: int
    level: str
    source: str


def family_heart_facts(family: str, n: int, p: int) -> HeartFacts:
    """Heart facts for S_n, A_n (n >= 6), M_n with p not dividing n - 1, and
    PSL2(q) with q > 11 (n = q + 1) and p not the field characteristic."""
    dim = n - 2 if n % p == 0 else n - 1
    if family == "S":
        return HeartFacts(n, factorial(n), dim, "VERY_SIMPLE",
                          "Zarhin, Very simple representations: variations on a theme of "
                          "Clifford (2005): the S_n heart is very simple, n >= 5")
    if family == "A":
        if n < 6:
            raise ValueError("A5 has exceptional primes; the pool starts at n = 6")
        return HeartFacts(n, factorial(n) // 2, dim, "VERY_SIMPLE",
                          "Zarhin (2005), as above: the A_n heart is very simple, n >= 6")
    if family == "M":
        if n == 11 and p == 3:
            raise ValueError("the modular table for M11 is cited only for p > 3")
        if (n - 1) % p == 0:
            raise ValueError("p | n - 1 is the Mathieu case the index criterion leaves open")
        # minimal index n of M_n exceeds dim, so no index divides dim
        return HeartFacts(n, MATHIEU_ORDERS[n], dim, "CENTRAL_SIMPLE",
                          f"{MORTIMER}; {ATLAS}: minimal index {n}; {INDEX_CRITERION}")
    if family == "PSL2":
        q = n - 1
        ell, _ = prime_power(q)
        if q <= 11 or p == ell:
            raise ValueError("outside the cited range q > 11, p != l")
        return HeartFacts(n, q * (q * q - 1) // gcd(2, q - 1), dim, "CENTRAL_SIMPLE",
                          f"{MORTIMER}; Huppert, Endliche Gruppen I (1967), II.8.28: "
                          f"minimal index q + 1 for q > 11; {INDEX_CRITERION}")
    raise ValueError(f"unknown family {family!r}")


def prime_power(q: int) -> tuple[int, int]:
    """(l, r) with q = l^r."""
    ell = next(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    while q % ell == 0:
        q //= ell
        r += 1
    if q != 1:
        raise ValueError(f"{ell ** r * q} is not a prime power")
    return ell, r


def expected_fields(p: int, r: int) -> tuple[list[str], int]:
    """Fields and Q-dimension of the conclusion for q = p^r."""
    if r == 1:
        return [f"Z[zeta_{p}]"], p - 1
    return [f"Q(zeta_{p ** i})" for i in range(1, r + 1)], p**r - 1


def check_conclusive(cert: dict) -> list[str]:
    """A conclusive certificate has every check passed and the right fields."""
    conc = cert["conclusion"]
    if conc["kind"] == "inconclusive":
        return []
    problems = [f"conclusive certificate with check {c['anchor']!r} = {c['pass']}"
                for c in cert["checks"] if c["pass"] is not True]
    sc = cert["scenario"]
    fields, dim = expected_fields(sc["p"], sc["r"])
    if conc["fields"] != fields or conc["dimension_over_q"] != dim:
        problems.append(f"conclusion {conc['fields']} dim {conc['dimension_over_q']}, "
                        f"expected {fields} dim {dim}")
    return problems


_INDEX_ANCHOR = re.compile(r"^no maximal subgroup index divides (\d+)$")
_ORDER_DETAIL = re.compile(r"^\|H\| = (\d+), p = (\d+)$")


def check_group_certificate(cert: dict, facts: GroupFacts) -> list[str]:
    """Every evaluated transitivity, order and index check agrees with the
    facts, and the theorem's hypotheses force a conclusive certificate."""
    problems = check_conclusive(cert)
    p = cert["scenario"]["p"]
    for c in cert["checks"]:
        if c["pass"] is None:
            continue
        anchor = c["anchor"]
        if anchor == "group acts doubly transitively on the n roots":
            if c["pass"] != facts.doubly_transitive:
                problems.append(f"double transitivity {c['pass']}")
        elif anchor == "p does not divide the group order":
            m = _ORDER_DETAIL.match(c["detail"])
            if m is None or int(m.group(1)) != facts.order:
                problems.append(f"order check detail {c['detail']!r}, order {facts.order}")
            if c["pass"] != (facts.order % p != 0):
                problems.append(f"coprime-order check {c['pass']} at p = {p}")
        elif (m := _INDEX_ANCHOR.match(anchor)) is not None:
            if c["pass"] != (not facts.index_divides(int(m.group(1)))):
                problems.append(f"index check {anchor!r} = {c['pass']}")
    if (cert["scenario"]["n"] == facts.degree and facts.coprime_order_hypotheses(p)
            and cert["conclusion"]["kind"] == "inconclusive"):
        problems.append(f"theorem hypotheses hold at p = {p} but the verdict is inconclusive")
    return problems


_HEART_GROUP = re.compile(r"^group: \S+ on (\d+) points, order (\d+)$")
_HEART_DIM = re.compile(r"^heart: dimension (\d+) \((hyperplane|quotient)\) over F_(\d+)$")


def check_heart_output(stdout: str, facts: HeartFacts) -> list[str]:
    """Degree, order, the n-1 / n-2 dimension law, absolute irreducibility
    and the simplicity level, read off `heartproof heart` output."""
    lines = stdout.splitlines()
    problems = []
    m = _HEART_GROUP.match(lines[0]) if lines else None
    if m is None or (int(m.group(1)), int(m.group(2))) != (facts.degree, facts.order):
        problems.append(f"group line {lines[:1]}, expected degree {facts.degree} "
                        f"order {facts.order}")
    m = _HEART_DIM.match(lines[1]) if len(lines) > 1 else None
    if m is None or int(m.group(1)) != facts.heart_dim:
        problems.append(f"heart line {lines[1:2]}, expected dimension {facts.heart_dim}")
    if "irreducible: yes (commutant dimension 1)" not in lines:
        problems.append("heart not reported absolutely irreducible")
    if f"simplicity verdict: {facts.level}" not in lines:
        problems.append(f"simplicity level differs from {facts.level}")
    return problems


_PROBE_DETAIL = re.compile(r"^probe: (proven_sn|proven_an_or_sn) \(witness prime (\d+), "
                           r"disc square: (True|False)\) -> ([SA])(\d+)$")


def check_poly_certificate(cert: dict, coeffs: tuple[int, ...]) -> list[str]:
    """Checks an analyze --poly certificate against sympy.

    When the probe proved S_n or A_n: the witness prime makes f irreducible
    mod p, the disc-square flag and the S_n / A_n resolution agree with
    sympy's discriminant, and for degree <= 6 sympy's Galois group is that
    group. `coeffs` are ascending.
    """
    from math import isqrt

    from sympy import Poly, discriminant, symbols
    from sympy.polys.numberfields.galoisgroups import galois_group

    problems = check_conclusive(cert)
    probe = [c for c in cert["checks"] if c["detail"].startswith("probe: ")]
    if not probe:
        return problems
    m = _PROBE_DETAIL.match(probe[0]["detail"])
    n = len(coeffs) - 1
    if m is None or int(m.group(5)) != n:
        return problems + [f"probe detail {probe[0]['detail']!r}"]
    witness, square, letter = int(m.group(2)), m.group(3) == "True", m.group(4)
    x = symbols("x")
    f = Poly(list(reversed(coeffs)), x)
    fp = Poly(list(reversed(coeffs)), x, modulus=witness)
    if fp.degree() != n or not fp.is_irreducible:
        problems.append(f"f is not irreducible mod the witness prime {witness}")
    disc = int(discriminant(f))
    if square != (disc >= 0 and isqrt(disc) ** 2 == disc):
        problems.append(f"disc square flag {square}, sympy disc {disc}")
    if letter != ("A" if square else "S"):
        problems.append(f"resolved {letter}{n} with disc square {square}")
    if n <= 6:
        group, _ = galois_group(f.as_expr(), x, by_name=True)
        if group.name != f"{letter}{n}":
            problems.append(f"proven {letter}{n}, sympy galois_group {group.name}")
    return problems
