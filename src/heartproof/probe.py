"""Galois-group evidence for integer polynomials.

Soundness rules, used contrapositively or directly:
  * irreducible mod p (p unramified) implies irreducible over Q and puts an
    n-cycle in the Galois group;
  * factor degree patterns mod unramified primes are cycle types of Galois
    elements;
  * a transitive group of prime degree is primitive, as is a transitive
    group containing a prime-length cycle moving more than half the points;
  * a primitive group containing a transposition is the full symmetric
    group; one containing a 3-cycle, or a prime-length cycle fixing at
    least three points, contains the alternating group;
  * a square discriminant confines the group to even permutations.

Certified conclusions only ever rest on those facts; everything else is
reported as Heuristic or Unknown.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

from . import gfpoly
from .fields import is_prime


# Named limits on the probe's inputs, whose work grows with both; they lie
# above every fixture, golden and benchmark input (degree <= 13, 40 primes).
MAX_POLY_DEGREE = 50
MAX_PRIME_BUDGET = 1000


class BadReduction(ValueError):
    """f mod p is not squarefree; sample a different prime."""


class NotSquarefree(ValueError):
    """f has repeated roots over Q."""


@dataclass(frozen=True)
class PolyZ:
    """Integer polynomial, ascending coefficients, nonzero leading term."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1]

    def derivative(self) -> "PolyZ":
        d = [i * c for i, c in enumerate(self.coeffs)][1:]
        while d and d[-1] == 0:
            d.pop()
        if not d:
            raise ValueError("derivative is zero")
        return PolyZ(tuple(d))

    def reduce_mod(self, p: int) -> list[int]:
        return gfpoly.reduce(list(self.coeffs), p)

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            terms.append(("-" if c < 0 else "+", body))
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?\s*(?:(?P<coef>\d+)\s*\*?\s*)?(?P<var>x)?(?:\^(?P<exp>\d+))?\s*"
)


def parse_poly(text: str) -> PolyZ:
    """Parse 'x^5 - x - 1' style expressions or ascending coefficient lists."""
    text = text.strip()
    if text.startswith("["):
        body = text.strip("[]")
        coeffs = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
        _check_degree(len(coeffs) - 1)
        return PolyZ(tuple(coeffs))
    pos = 0
    terms: list[tuple[int, int]] = []  # (exponent, coefficient)
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign, coef, var, exp = m.group("sign", "coef", "var", "exp")
        if coef is None and var is None:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        if sign is None and not first:
            raise ValueError(f"missing sign near {text[pos:]!r}")
        c = int(coef) if coef is not None else 1
        if sign == "-":
            c = -c
        if var is None:
            e = 0
            if exp is not None:
                raise ValueError("exponent without variable")
        else:
            e = int(exp) if exp is not None else 1
        terms.append((e, c))
        pos = m.end()
        first = False
    degree = max(e for e, _ in terms)
    _check_degree(degree)
    coeffs = [0] * (degree + 1)
    for e, c in terms:
        coeffs[e] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return PolyZ(tuple(coeffs))


def _check_degree(degree: int) -> None:
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"degree {degree} is above the limit MAX_POLY_DEGREE = "
                         f"{MAX_POLY_DEGREE}")


def is_squarefree(f: PolyZ) -> bool:
    """f has no repeated root over Q, which holds exactly when disc(f) != 0."""
    return discriminant(f) != 0


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester(f: PolyZ, g: PolyZ) -> list[list[int]]:
    n, m = f.degree, g.degree
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([0] * i + fc + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gc + [0] * (size - m - 1 - i))
    return rows


def resultant(f: PolyZ, g: PolyZ) -> int:
    """Exact resultant via a fraction-free Sylvester determinant."""
    return _bareiss_det(_sylvester(f, g))


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    m = [[c % p for c in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det % p
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            if m[i][k]:
                t = m[i][k] * inv % p
                m[i] = [(a - t * b) % p for a, b in zip(m[i], m[k])]
    return det % p


def resultant_crt(f: PolyZ, g: PolyZ) -> int:
    """The same resultant reconstructed from modular images.

    Primes avoid the leading coefficients; the Hadamard bound on the
    Sylvester determinant caps the reconstruction. Serves as an independent
    cross-check of the fraction-free computation.
    """
    syl = _sylvester(f, g)
    bound = 1
    for row in syl:
        s = sum(c * c for c in row)
        bound *= isqrt(s) + 1
    target = 2 * bound + 1
    residue, modulus = 0, 1
    p = 10**6
    while modulus < target:
        p = _next_prime(p + 1)
        if f.lc % p == 0 or g.lc % p == 0:
            continue
        rp = _det_mod_p(syl, p)
        # CRT combine
        inv = pow(modulus % p, -1, p)
        residue = residue + modulus * ((rp - residue) % p * inv % p)
        modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    return residue


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def discriminant(f: PolyZ) -> int:
    n = f.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * res
    assert num % f.lc == 0
    return num // f.lc


def discriminant_crt(f: PolyZ) -> int:
    n = f.degree
    res = resultant_crt(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res // f.lc


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def factor_degrees_mod_p(f: PolyZ, p: int, disc: int) -> list[int]:
    """Sorted multiset of irreducible factor degrees of f mod p, for
    disc = disc(f).

    Requires p to divide neither lc(f) nor disc (BadReduction otherwise: the
    caller samples another prime). Then f mod p keeps its degree, and it is
    squarefree because its discriminant is disc mod p.
    """
    if f.lc % p == 0:
        raise BadReduction(f"p = {p} divides the leading coefficient")
    if disc % p == 0:
        raise BadReduction(f"p = {p} divides the discriminant")
    return gfpoly.factor_degrees(gfpoly.monic(f.reduce_mod(p), p), p)


def sample_primes(f: PolyZ, disc: int, budget: int) -> list[int]:
    """First `budget` primes >= 3 dividing neither lc(f) nor disc = disc(f)."""
    out = []
    p = 2
    while len(out) < budget:
        p = _next_prime(p + 1)
        if f.lc % p != 0 and disc % p != 0:
            out.append(p)
    return out


@dataclass
class GaloisEvidence:
    """Everything the probe observed, plus the certified conclusion.

    conclusion is one of proven_sn / proven_an_or_sn / contains_tag /
    heuristic / unknown; `conclusion_tag` qualifies the last three
    ('alternating' / 'symmetric'). For proven_an_or_sn the discriminant
    square test decides between the two groups.
    """

    poly: PolyZ
    degree: int
    budget: int
    irreducible_witness: int | None
    cycle_types: tuple[tuple[tuple[int, ...], int], ...]  # (pattern, first prime)
    disc: int
    disc_is_square: bool
    conclusion: str
    conclusion_tag: str | None
    reasons: tuple[str, ...]

    @property
    def resolved_group(self) -> str | None:
        """'symmetric' or 'alternating' when proven, else None."""
        if self.conclusion == "proven_sn":
            return "symmetric"
        if self.conclusion == "proven_an_or_sn":
            return "alternating" if self.disc_is_square else "symmetric"
        return None


def _pure_prime_cycle_lengths(pattern: tuple[int, ...]) -> set[int]:
    """Prime lengths l such that some power of an element with this cycle
    type is a single l-cycle (one part = l, no other part divisible by l)."""
    out = set()
    for part in set(pattern):
        if part > 1 and is_prime(part) and pattern.count(part) == 1:
            if all(q % part != 0 for q in pattern if q != part):
                out.add(part)
    return out


def _is_transposition_pattern(pattern: tuple[int, ...]) -> bool:
    """Exactly one part equal to 2, every other part odd."""
    return pattern.count(2) == 1 and all(q % 2 == 1 for q in pattern if q != 2)


def classify_galois(f: PolyZ, prime_budget: int = 40) -> GaloisEvidence:
    """Deterministic evidence gathering over the first unramified primes."""
    n = f.degree
    disc = discriminant(f)
    if disc == 0:
        raise NotSquarefree(f"{f} has repeated roots")
    disc_square = is_perfect_square(disc)
    primes = sample_primes(f, disc, prime_budget)

    witness = None
    patterns: dict[tuple[int, ...], int] = {}
    for p in primes:
        degs = tuple(factor_degrees_mod_p(f, p, disc))
        if degs not in patterns:
            patterns[degs] = p
        if witness is None and degs == (n,):
            witness = p

    reasons = []
    transitive = witness is not None
    if transitive:
        reasons.append(f"irreducible mod {witness}: irreducible over Q, n-cycle present")
    primitive = False
    if transitive and is_prime(n):
        primitive = True
        reasons.append(f"degree {n} is prime: transitive implies primitive")
    if transitive and not primitive:
        for pat, p in sorted(patterns.items()):
            long_cycles = {l for l in _pure_prime_cycle_lengths(pat) if n / 2 < l < n}
            if long_cycles:
                l = min(long_cycles)
                primitive = True
                reasons.append(
                    f"cycle type {pat} mod {p} powers to a {l}-cycle with {l} > n/2: primitive"
                )
                break

    transposition = None
    for pat, p in sorted(patterns.items()):
        if _is_transposition_pattern(pat):
            transposition = (pat, p)
            break
    if transposition:
        reasons.append(
            f"cycle type {transposition[0]} mod {transposition[1]} powers to a transposition"
        )

    contains_alt = False
    if primitive:
        for pat, p in sorted(patterns.items()):
            small = {l for l in _pure_prime_cycle_lengths(pat) if l == 3 or l <= n - 3}
            if small:
                l = min(small)
                contains_alt = True
                reasons.append(
                    f"cycle type {pat} mod {p} powers to a {l}-cycle: primitive group "
                    "contains the alternating group"
                )
                break

    reasons.append(f"disc = {disc} is {'a' if disc_square else 'not a'} perfect square")

    conclusion, tag = "unknown", None
    if contains_alt:
        if disc_square:
            conclusion = "proven_an_or_sn"
        elif transposition is not None:
            conclusion = "proven_sn"
        else:
            conclusion = "proven_an_or_sn"
    elif primitive and transposition is not None and not disc_square:
        conclusion = "proven_sn"
    elif transitive and transposition is not None and not disc_square:
        # full pattern rule without a primitivity certificate (composite n)
        conclusion, tag = "heuristic", "symmetric"
    elif transitive and disc_square:
        conclusion, tag = "contains_tag", "alternating"
        reasons.append("transitive subgroup of the alternating group (containment only)")
    return GaloisEvidence(
        poly=f,
        degree=n,
        budget=prime_budget,
        irreducible_witness=witness,
        cycle_types=tuple(sorted(patterns.items())),
        disc=disc,
        disc_is_square=disc_square,
        conclusion=conclusion,
        conclusion_tag=tag,
        reasons=tuple(reasons),
    )


def verify_evidence(ev: GaloisEvidence) -> bool:
    """Re-derive every ingredient of the evidence from scratch.

    Re-factors the irreducibility witness, recomputes the discriminant by
    both the fraction-free and the modular route, replays the sampling and
    the conclusion, and compares field by field.
    """
    f = ev.poly
    if ev.irreducible_witness is not None:
        fp = gfpoly.monic(f.reduce_mod(ev.irreducible_witness), ev.irreducible_witness)
        if not gfpoly.is_irreducible(fp, ev.irreducible_witness):
            return False
    d1 = discriminant(f)
    d2 = discriminant_crt(f)
    if d1 != d2 or d1 != ev.disc:
        return False
    if is_perfect_square(d1) != ev.disc_is_square:
        return False
    fresh = classify_galois(f, ev.budget)
    return (
        fresh.conclusion == ev.conclusion
        and fresh.conclusion_tag == ev.conclusion_tag
        and fresh.cycle_types == ev.cycle_types
        and fresh.irreducible_witness == ev.irreducible_witness
    )
