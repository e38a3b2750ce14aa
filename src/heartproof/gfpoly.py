"""Dense univariate polynomial arithmetic over F_p.

Polynomials are lists of ints in ascending degree order with coefficients
reduced mod p; the zero polynomial is []. Factorization follows the usual
squarefree / distinct-degree / equal-degree pipeline.

Distinct-degree splitting uses Berlekamp's Frobenius matrix (Berlekamp,
Bell Syst. Tech. J. 46, 1967; von zur Gathen-Gerhard, Modern Computer
Algebra, section 14.2): x^p mod f is computed once, the rows x^(i*p) mod f
follow from it, and each later x^(p^d) is one linear map, because
h(x)^p = sum_i h_i * x^(i*p) over F_p.

Products modulo a fixed monic f of degree n are taken on packed
coefficients (Kronecker substitution, ibid. section 8.4): coefficients
below p are packed into one Python int with w-bit slots, so one big-int
product does the O(n^2) coefficient work in C. A slot of the product sums
at most n terms of at most (p-1)^2; folding its top half back through the
packed table x^(n+j) mod f adds at most n - 1 more such terms. Every slot
therefore stays at most (2n-1)*(p-1)^2, and w = bitlen((2n-1)*(p-1)^2)
keeps it exact and nonnegative.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import lshift, mul as _mul_int


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def reduce(f: list[int], p: int) -> list[int]:
    return trim([c % p for c in f])


def degree(f: list[int]) -> int:
    """Degree with deg 0 = -1 for the zero polynomial."""
    return len(f) - 1


def sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % p for c in out])


def scale(f: list[int], c: int, p: int) -> list[int]:
    return trim([a * c % p for a in f])


def quo(f: list[int], g: list[int], p: int) -> list[int]:
    """The quotient of f by g, building no remainder."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    low = g[:-1]
    lg_inv = pow(g[-1], -1, p)
    r = list(f)
    quot = [0] * max(0, len(r) - dg)
    # r stays exact but unreduced below the leading term
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] * lg_inv % p
        if c:
            shift = top - dg
            quot[shift] = c
            r[shift:top] = [a - c * b for a, b in zip(r[shift:top], low)]
    return trim(quot)


def monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    return scale(f, pow(f[-1], -1, p), p)


def rem(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g, building no quotient."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    low = g[:-1]
    lg_inv = pow(g[-1], -1, p)
    r = list(f)
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top] * lg_inv % p
        if c:
            r[top - dg:top] = [a - c * b for a, b in zip(r[top - dg:top], low)]
    return trim([a % p for a in r[:dg]])


def gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, rem(f, g, p)
    return monic(f, p)


def derivative(f: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(f)][1:])


class _Modulus:
    """Multiplication modulo a fixed polynomial f of degree n >= 1, on
    packed coefficients (slot width and bound in the module docstring)."""

    def __init__(self, f: list[int], p: int):
        f = monic(f, p)
        n = degree(f)
        self.p = p
        w = ((2 * n - 1) * (p - 1) ** 2).bit_length()
        self.mask = (1 << w) - 1
        self.shifts = [w * i for i in range(n)]
        self.top_shifts = [w * i for i in range(n, 2 * n - 1)]
        self.low_mask = (1 << (w * n)) - 1
        # x^(n+j) mod f for j < n - 1, packed
        self.fold = []
        row = [-c % p for c in f[:-1]]
        for _ in range(n - 1):
            self.fold.append(self.pack(row))
            top = row[-1]
            row = [(a - top * b) % p for a, b in zip([0] + row[:-1], f)]

    def pack(self, a: list[int]) -> int:
        return sum(map(lshift, a, self.shifts))

    def unpack(self, c: int) -> list[int]:
        mask, p = self.mask, self.p
        return trim([(c >> s & mask) % p for s in self.shifts])

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a*b mod f for a, b reduced mod f."""
        c = self.pack(a) * self.pack(b)
        mask, p = self.mask, self.p
        top = [(c >> s & mask) % p for s in self.top_shifts]
        return self.unpack(sum(map(_mul_int, top, self.fold), c & self.low_mask))

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e mod f for a reduced mod f, by left-to-right square-and-multiply."""
        if e == 0:
            return [1]
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def powers(self, a: list[int]) -> list[int]:
        """a^i mod f for i < n, packed: the Frobenius matrix when a = x^p mod f."""
        rows = [1, self.pack(a)]
        b = a
        for _ in range(len(self.shifts) - 2):
            b = self.mul(b, a)
            rows.append(self.pack(b))
        return rows

    def apply(self, h: list[int], rows: list[int]) -> list[int]:
        """sum_i h_i * rows[i], reduced: h^p mod f when rows are the Frobenius
        matrix (each slot sums at most n terms of at most (p-1)^2)."""
        return self.unpack(sum(map(_mul_int, h, rows)))


@lru_cache(maxsize=8)
def _modulus(f: tuple[int, ...], p: int) -> _Modulus:
    """The packed modulus of f, built once for a `distinct_degree` call and
    the `pow_mod` call it makes."""
    return _Modulus(list(f), p)


def pow_mod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """f^e reduced mod the polynomial `mod`."""
    return _modulus(tuple(mod), p).pow(rem(f, mod, p), e)


def is_squarefree(f: list[int], p: int) -> bool:
    return degree(gcd(f, derivative(f, p), p)) <= 0


def squarefree_part(f: list[int], p: int) -> list[int]:
    """Product of the distinct irreducible factors of f.

    Handles the p-th power collapse (f' = 0) that occurs in characteristic p.
    """
    f = monic(f, p)
    if degree(f) <= 0:
        return f
    d = derivative(f, p)
    if not d:
        # f is a p-th power: f(x) = h(x^p) = h(x)^p over F_p.
        h = [f[i] for i in range(0, len(f), p)]
        return squarefree_part(h, p)
    g = gcd(f, d, p)
    w = quo(f, g, p)
    if degree(g) == 0:
        return w
    # The factors of g not already in w are p-th power contributions.
    rest = g
    while True:
        c = gcd(rest, w, p)
        if degree(c) == 0:
            break
        rest = quo(rest, c, p)
    if degree(rest) == 0:
        return w
    return mul(w, squarefree_part(rest, p), p)


def distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree splitting of a squarefree monic f.

    Returns pairs (g, d) where g is the product of all irreducible factors
    of degree exactly d, with d increasing. h = x^(p^d) stays reduced mod the
    original f, and the Frobenius matrix of f (built at d = 2) takes it to
    x^(p^(d+1)); gcd(h - x, rest) is still right for the shrinking cofactor
    `rest` of f, because rest divides f.
    """
    f = monic(f, p)
    out = []
    rest = f
    d = 0
    while degree(rest) > 0:
        d += 1
        if 2 * d > degree(rest):
            out.append((rest, degree(rest)))
            break
        if d == 1:
            h = xp = pow_mod([0, 1], p, f, p)
        else:
            if d == 2:
                modulus = _modulus(tuple(f), p)
                frobenius = modulus.powers(xp)
            h = modulus.apply(h, frobenius)
        g = gcd(sub(h, [0, 1], p), rest, p)
        if degree(g) > 0:
            out.append((g, d))
            rest = quo(rest, g, p)
    return out


def factor_degrees(f: list[int], p: int) -> list[int]:
    """Sorted multiset of irreducible factor degrees of a squarefree f."""
    degs = []
    for g, d in distinct_degree(f, p):
        degs.extend([d] * (degree(g) // d))
    return sorted(degs)


def is_irreducible(f: list[int], p: int) -> bool:
    f = monic(f, p)
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not is_squarefree(f, p):
        return False
    dd = distinct_degree(f, p)
    return len(dd) == 1 and dd[0][1] == n


def _split_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a product f of degree-d irreducibles, p odd."""
    n = degree(f)
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)] + [1]
        a = rem(a, f, p)
        if degree(a) <= 0:
            continue
        g = gcd(a, f, p)
        if 0 < degree(g) < n:
            pass
        else:
            b = pow_mod(a, e, f, p)
            g = gcd(sub(b, [1], p), f, p)
            if not 0 < degree(g) < n:
                continue
        left = _split_equal_degree(g, d, p, rng)
        right = _split_equal_degree(quo(f, g, p), d, p, rng)
        return left + right


def factor_squarefree(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a squarefree f over F_p, p odd, sorted.

    Equal-degree splitting draws from a fixed Random(0); the sorted factors
    do not depend on the draws.
    """
    if p == 2:
        raise NotImplementedError("equal-degree splitting implemented for odd p only")
    rng = random.Random(0)
    factors = []
    for g, d in distinct_degree(f, p):
        factors.extend(_split_equal_degree(g, d, p, rng))
    return sorted(factors)
