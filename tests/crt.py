"""Independent route to resultants and discriminants, for cross-checking in tests.

The resultant is reconstructed by the Chinese remainder theorem from
determinants mod primes above 10^6, up to the Hadamard bound on the
Sylvester determinant. The matrix and the primes are built here, not taken
from heartproof.probe, so a fault in the probe's Sylvester matrix or prime
search cannot pass both routes. The matrix is laid out in ascending powers,
row i holding x^i f or x^i g, which is the classical Sylvester matrix with
its rows reversed in each block and its columns reversed: its determinant
is Res(f, g) times (-1)^(deg f * deg g).
"""

from math import isqrt


def _ascending_sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    return ([[0] * i + f + [0] * (size - n - 1 - i) for i in range(m)]
            + [[0] * i + g + [0] * (size - m - 1 - i) for i in range(n)])


def _primes_from(start: int):
    """Primes >= start, in order, by trial division."""
    n = start
    while True:
        if n > 1 and all(n % d for d in range(2, isqrt(n) + 1)):
            yield n
        n += 1


def _det_mod(rows: list[list[int]], p: int) -> int:
    """det(rows) mod p by Gaussian elimination over F_p."""
    m = [[c % p for c in row] for row in rows]
    det = 1
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, len(m)):
            t = m[i][k] * inv % p
            if t:
                m[i] = [(a - t * b) % p for a, b in zip(m[i], m[k])]
    return det % p


def resultant_crt(f: list[int], g: list[int]) -> int:
    """Res(f, g) of integer polynomials given by ascending coefficients,
    each with a nonzero leading coefficient."""
    rows = _ascending_sylvester(f, g)
    bound = 1
    for row in rows:
        bound *= isqrt(sum(c * c for c in row)) + 1
    residue, modulus = 0, 1
    primes = _primes_from(10**6)
    while modulus <= 2 * bound:
        p = next(primes)
        step = (_det_mod(rows, p) - residue) * pow(modulus, -1, p) % p
        residue, modulus = residue + modulus * step, modulus * p
    if residue > modulus // 2:
        residue -= modulus
    return (-1) ** ((len(f) - 1) * (len(g) - 1)) * residue


def discriminant_crt(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for a PolyZ f of degree n >= 1."""
    coeffs = list(f.coeffs)
    n = len(coeffs) - 1
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    if not derivative:
        raise ValueError("derivative is zero")
    res = resultant_crt(coeffs, derivative)
    return (-1) ** (n * (n - 1) // 2) * res // coeffs[-1]
