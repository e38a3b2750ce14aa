"""Exact arithmetic in prime fields F_p and small extensions F_{l^r}.

Scalars of F_p are plain ints reduced to the canonical range [0, p).
Extension field elements are ints encoding polynomials in the generator:
sum(c_i * alpha^i) <-> sum(c_i * l^i) with digits c_i in [0, l), so the
encoding doubles as a deterministic total order on field elements.
"""

from __future__ import annotations

from . import gfpoly


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 in a field."""


class NotPrime(ValueError):
    """Raised when a claimed prime modulus is composite."""


# psi_13, the least strong pseudoprime to the 13 prime bases 2..41
# (Sorenson and Webster, Math. Comp. 86, 2017): below it the Miller-Rabin
# test with those bases is proven exact.
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_TEST_LIMIT.

    Raises ValueError at or above the limit, where the test is unproven.
    """
    if n < 2:
        return False
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large: the primality test is proven exact "
                         f"only below {PRIME_TEST_LIMIT}")
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None for non-residues.

    Returns the smaller of the two roots, so the result is deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks with the smallest non-residue as auxiliary element.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def lowest_irreducible(ell: int, r: int) -> list[int]:
    """Lowest monic irreducible of degree r over F_ell, ascending coefficients.

    Candidates x^r + a_{r-1} x^{r-1} + ... + a_0 are scanned in increasing
    order of the digit tuple (a_{r-1}, ..., a_0), i.e. of the integer
    sum(a_i ell^i), so the modulus is a reproducible constant of (ell, r).
    """
    if r == 1:
        return [0, 1]
    for code in range(ell**r):
        digits = []
        v = code
        for _ in range(r):
            digits.append(v % ell)
            v //= ell
        candidate = digits + [1]
        if gfpoly.is_irreducible(candidate, ell):
            return candidate
    raise AssertionError("no irreducible polynomial found")  # unreachable


class ExtField:
    """The field with q = ell^r elements, ell prime, r >= 1.

    Elements are ints in [0, q) encoding coordinates in the power basis of
    the canonical modulus (see lowest_irreducible). For r = 1 this is F_ell
    with the usual representatives.
    """

    def __init__(self, ell: int, r: int):
        if not is_prime(ell):
            raise NotPrime(f"characteristic {ell} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        self.ell = ell
        self.r = r
        self.q = ell**r
        self.modulus = lowest_irreducible(ell, r)

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.r):
            digits.append(a % self.ell)
            a //= self.ell
        return digits

    def _encode(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.ell + (c % self.ell)
        return v

    def add(self, a: int, b: int) -> int:
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.ell for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        prod = gfpoly.mul(self._decode(a), self._decode(b), self.ell)
        rem = gfpoly.rem(prod, self.modulus, self.ell)
        rem = rem + [0] * (self.r - len(rem))
        return self._encode(rem)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"0 has no inverse in F_{self.q}")
        e, result, base = self.q - 2, 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result
