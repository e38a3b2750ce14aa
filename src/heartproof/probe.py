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

Factor patterns are read from Frobenius traces (Berlekamp, Bell Syst.
Tech. J. 46, 1967). Let f of degree n be squarefree mod p with irreducible
factors of degrees d_i, and let Q be its Frobenius matrix, h -> h^p on
F_p[x]/(f), whose row i is x^(i*p) mod f. The algebra is the product of
the fields F_{p^(d_i)}, and in a normal basis of each the Frobenius is a
d_i-cycle (Lidl-Niederreiter, Finite Fields, Thm 2.35). So
tr(Q^k) = sum of the d_i dividing k, taken mod p; that sum is at most n,
so for n < p the residue is the integer itself. Writing N_d for the number
of factors of degree d, tr(Q^k) = sum_{d | k} d * N_d, and Moebius
inversion gives every N_k for k <= n/2; what degree is left over is 0 or
one factor above n/2. `factor_degrees_mod_primes` stacks every prime with
n < p and n^2 * p^3 < 2^52 into one float64 batch, where all is exact: for
an integer x below 2^52, x * (1/p) lies within 1/p of x / p, so
x - p * rint(x * (1/p)) is an integer of size below p for p >= 3. Entries
are reduced once per step, so a square of reduced matrices has entries below
n * p^2; its product with the companion matrix (entries in [0, p)) has
partial sums below n^2 * p^3, and every other product entry (n terms below
p^2) or tr(A B) (n^2 terms) stays below that. Other primes take the gcd route
of `factor_degrees_mod_p`: for p <= n the residue of tr(Q^k) is ambiguous;
past the bound sums round.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from . import gfpoly
from .fields import is_prime


# Named limits on the probe's inputs, whose work grows with each; they lie
# above every fixture, golden and benchmark input (degree <= 13, 40 primes,
# coefficients below 2^5). The subresultant discriminant grows with coefficient
# size: at degree 50 with 64-bit coefficients it takes about 0.12 s (one Xeon core).
MAX_POLY_DEGREE = 50
MAX_PRIME_BUDGET = 1000
MAX_COEFF_BITS = 64


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
        _check_coeff_bits(coeffs)
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
    _check_coeff_bits(coeffs)
    return PolyZ(tuple(coeffs))


def _check_degree(degree: int) -> None:
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"degree {degree} is above the limit MAX_POLY_DEGREE = "
                         f"{MAX_POLY_DEGREE}")


def _check_coeff_bits(coeffs: list[int]) -> None:
    bits = max(map(abs, coeffs), default=0).bit_length()
    if bits > MAX_COEFF_BITS:
        raise ValueError(f"a coefficient of {bits} bits is above the limit MAX_COEFF_BITS = "
                         f"{MAX_COEFF_BITS}")


def resultant(f: PolyZ, g: PolyZ) -> int:
    """Res(f, g) by the subresultant PRS over Z (Collins, J. ACM 14, 1967; Cohen,
    GTM 138, Alg. 3.3.7): O(n^2) integer operations, every division exact."""
    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * resultant(g, f)
    a, b = list(f.coeffs), list(g.coeffs)
    sign = lead = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        # a becomes the pseudo-remainder lc(b)^(delta + 1) * a mod b
        for shift in range(delta, -1, -1):
            c = a.pop()
            a = [x * b[-1] for x in a[:shift]] + [x * b[-1] - c * y for x, y in zip(a[shift:], b)]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return 0
        a, b = b, [c // (lead * h**delta) for c in a]
        lead = a[-1]
        h = h * lead**delta // h**delta
    n = len(a) - 1
    return sign * (h * b[0]**n // h**n)


def discriminant(f: PolyZ) -> int:
    n = f.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    num = (-1) ** (n * (n - 1) // 2) * resultant(f, f.derivative())
    if num % f.lc:
        raise ArithmeticError(f"{num}, the signed Res(f, f'), is not a multiple of lc(f) = {f.lc}")
    return num // f.lc


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _check_reduction(f: PolyZ, p: int, disc: int) -> None:
    if f.lc % p == 0:
        raise BadReduction(f"p = {p} divides the leading coefficient")
    if disc % p == 0:
        raise BadReduction(f"p = {p} divides the discriminant")


def factor_degrees_mod_p(f: PolyZ, p: int, disc: int) -> list[int]:
    """Sorted multiset of irreducible factor degrees of f mod p, for
    disc = disc(f).

    Requires p to divide neither lc(f) nor disc (BadReduction otherwise: the
    caller samples another prime). Then f mod p keeps its degree, and it is
    squarefree because its discriminant is disc mod p.
    """
    _check_reduction(f, p, disc)
    return gfpoly.factor_degrees(gfpoly.monic(f.reduce_mod(p), p), p)


def factor_degrees_mod_primes(f: PolyZ, primes: list[int], disc: int) -> list[list[int]]:
    """factor_degrees_mod_p(f, p, disc) for every p in `primes`, in order.

    Primes with n < p and n^2 * p^3 < 2^52 are read together from Frobenius
    traces (module docstring); the others take `factor_degrees_mod_p`.
    """
    n = f.degree
    batch = [p for p in primes if n < p and n * n * p**3 < 1 << 52]
    traced = dict(zip(batch, _trace_patterns(f, batch, disc)))
    return [traced[p] if p in traced else factor_degrees_mod_p(f, p, disc) for p in primes]


def _trace_patterns(f: PolyZ, primes: list[int], disc: int) -> list[list[int]]:
    """Factor degrees of f mod each prime from tr(Q^k) for k <= n/2; needs
    n < p and n^2 * p^3 < 2^52 for every p."""
    for p in primes:
        _check_reduction(f, p, disc)
    if not primes:
        return []
    n, half = f.degree, f.degree // 2
    counts = _frobenius_traces(f, primes, half) @ _moebius_matrix(half) // np.arange(1, half + 1)
    out = [[k for k, count in enumerate(row, 1) for _ in range(count)] for row in counts.tolist()]
    return [degs + [n - sum(degs)] if sum(degs) < n else degs for degs in out]


@cache
def _moebius_matrix(half: int) -> np.ndarray:
    """M[d - 1, k - 1] = mu(k / d) for d | k <= half, else 0: the inverse of the
    divisibility matrix, so (tr(Q^k))_k M = (k * N_k)_k. Read-only."""
    k = np.arange(1, half + 1)
    out = np.rint(np.linalg.inv(k % k[:, None] == 0)).astype(np.int64)
    out.flags.writeable = False
    return out


def _frobenius_traces(f: PolyZ, primes: list[int], upto: int) -> np.ndarray:
    """tr(Q^k) mod p for k = 1..upto, one row per prime, with every prime
    stacked into one (P, n, n) float64 array; exact while n^2 * p^3 < 2^52."""
    n, count = f.degree, len(primes)
    ps = np.array(primes)
    mod = np.repeat(ps.astype(np.float64), n * n).reshape(count, n, n)
    recip, scratch = 1 / mod, np.empty_like(mod)

    def reduce(x):  # in place, to x mod p as an integer below p in size
        rows = x.shape[1]
        s = scratch[:, :rows]
        np.rint(np.multiply(x, recip[:, :rows], out=s), out=s)
        x -= np.multiply(s, mod[:, :rows], out=s)
        return x
    # companion matrix of monic f mod p: row i is x^(i+1) mod f; c % p stays
    # in Python, as a coefficient may not fit in an int64
    companion = np.eye(n, k=1)[None].repeat(count, axis=0)
    low = np.array([[c % p for c in f.coeffs[:-1]] for p in primes])
    invs = np.array([pow(f.lc, -1, p) for p in primes])
    companion[:, n - 1] = -low * invs[:, None] % ps[:, None]
    # F = C^p, multiplication by x^p mod f, by square-and-multiply on each p's
    # bits, one reduction per bit: a product of the square (entries below n*p^2)
    # with C (entries in [0, p)) has partial sums below n^2 * p^3
    bits = np.arange(max(primes).bit_length())[::-1, None]
    odd = (ps >> bits & 1).astype(bool)[:, :, None, None]  # (bit, prime)
    frob = np.where(odd[0], companion, np.eye(n))
    for step in odd[1:]:
        square = frob @ frob
        frob = reduce(np.where(step, square @ companion, square))
    # Q: row i is x^(i*p) mod f = e_0 F^i, by doubling [R; R F^m] with F^m = F^(rows of R)
    q = np.eye(1, n)[None].repeat(count, axis=0)
    while q.shape[1] < n:
        q = np.concatenate([q, reduce(q[:, :n - q.shape[1]] @ frob)], axis=1)
        if q.shape[1] < n:
            frob = reduce(frob @ frob)
    # tr(Q^k) = sum_ij (Q^ceil(k/2))_ij (Q^floor(k/2))_ji: Q^j pairs with Q^(j-1) and Q^j
    traces, last, power = [], np.broadcast_to(np.eye(n), q.shape), q
    for k in range(1, upto + 1):
        traces.append(np.einsum("pij,pji->p", power, last if k % 2 else power))
        if k % 2 == 0 and k < upto:
            last, power = power, reduce(power @ q)
    return np.rint(np.array(traces).T).astype(np.int64) % ps[:, None]


# The odd primes in order, shared by every call and grown by is_prime on demand.
_ODD_PRIMES: list[int] = []
_ODD_PRIMES_GROWTH = threading.Lock()


def sample_primes(f: PolyZ, disc: int, budget: int) -> list[int]:
    """First `budget` primes >= 3 dividing neither lc(f) nor disc = disc(f)."""
    out = []
    i = 0
    while len(out) < budget:
        if i >= len(_ODD_PRIMES):
            with _ODD_PRIMES_GROWTH:
                while len(_ODD_PRIMES) <= i:
                    p = _ODD_PRIMES[-1] + 2 if _ODD_PRIMES else 3
                    while not is_prime(p):
                        p += 2
                    _ODD_PRIMES.append(p)
        p = _ODD_PRIMES[i]
        if f.lc % p and disc % p:
            out.append(p)
        i += 1
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
    for p, degs in zip(primes, factor_degrees_mod_primes(f, primes, disc)):
        degs = tuple(degs)
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
