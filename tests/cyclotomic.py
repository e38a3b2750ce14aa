"""Cyclotomic polynomials of prime-power order over Z, for tests.

Phi_{p^i}(t) = sum_{j<p} t^(j * p^(i-1)), and the product of Phi_{p^i} over
1 <= i <= r is (t^q - 1)/(t - 1) = 1 + t + ... + t^(q-1) for q = p^r.
"""


def cyclotomic_poly_prime_power(p: int, i: int) -> list[int]:
    """Phi_{p^i}, ascending coefficients."""
    step = p ** (i - 1)
    out = [0] * ((p - 1) * step + 1)
    for j in range(p):
        out[j * step] = 1
    return out


def poly_product(polys: list[list[int]]) -> list[int]:
    """Product of integer polynomials, ascending coefficients."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out
