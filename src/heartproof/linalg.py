"""Dense linear algebra over F_p on numpy int64 arrays.

All matrices carry canonical entries in [0, p). A product of two d x d
matrices accumulates d terms below p^2, so the arithmetic is exact when
d * p^2 < 2^63; `modules.heart` refuses larger p.
"""

from __future__ import annotations

import numpy as np


class SingularMatrix(ValueError):
    """Raised when inverting a singular matrix."""


def asmat(rows, p: int) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64) % p


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = m.copy() % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(m: np.ndarray, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right null space {v : m v = 0}, one vector per free column."""
    red, pivots = rref(m, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r, fc]) % p
        basis.append(v)
    return basis


def mat_inv(m: np.ndarray, p: int) -> np.ndarray:
    n = m.shape[0]
    aug = np.concatenate([m % p, identity(n)], axis=1)
    red, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular mod %d" % p)
    return red[:, n:]


def charpoly(m: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial det(xI - m), ascending coefficients, monic.

    Uses a similarity reduction to upper Hessenberg form followed by the
    leading-principal-minor recurrence.
    """
    h = [[int(x) % p for x in row] for row in m]
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            if h[i][j]:
                t = h[i][j] * inv % p
                for c in range(n):
                    h[i][c] = (h[i][c] - t * h[j + 1][c]) % p
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + t * h[r][i]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = [0] + prev  # x * p_{k-1}
        d = h[k - 1][k - 1]
        for i, c in enumerate(prev):
            term[i] = (term[i] - d * c) % p
        term = [c % p for c in term]
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = prod * h[i + 1][i] % p
            coeff = h[i][k - 1] * prod % p
            if coeff:
                for idx, c in enumerate(polys[i]):
                    term[idx] = (term[idx] - coeff * c) % p
        polys.append(term)
    return polys[n]


def poly_of_matrix(f: list[int], m: np.ndarray, p: int) -> np.ndarray:
    """Evaluate the polynomial f (ascending coefficients) at the matrix m."""
    n = m.shape[0]
    out = zeros(n, n)
    for c in reversed(f):
        out = (out @ m + c * identity(n)) % p
    return out
