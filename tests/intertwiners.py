"""Module constructions and intertwiner search over F_p, for tests.

Permutation modules, tensor products, Hom spaces from one Kronecker system
(d1 * d2 unknowns, so only for small modules) and a seeded search for an
invertible intertwiner. No route of heartproof needs them; tests use them
to build modules and to compare them.
"""

import random

import numpy as np

from heartproof import linalg
from heartproof.modules import GModule


def word_matrix(module, word: list[int]) -> np.ndarray:
    """Matrix of the word in the generators, a product in the same order."""
    out = linalg.identity(module.dim)
    for i in word:
        out = linalg.mat_mul(out, module.gen_matrices[i], module.p)
    return out


def is_invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and linalg.rank(m, p) == m.shape[0]


def permutation_module(g, p: int) -> GModule:
    """The natural module F_p^B: g has a 1 in position (i, g[i])."""
    mats = []
    for x in g.generators:
        m = linalg.zeros(g.degree, g.degree)
        m[range(g.degree), x] = 1
        mats.append(m)
    return GModule(g, p, g.degree, mats)


def tensor(m1: GModule, m2: GModule) -> GModule:
    """Tensor product over F_p: Kronecker products generator by generator."""
    g1, g2 = m1.group, m2.group
    if m1.p != m2.p or g1.generators != g2.generators:
        raise ValueError("tensor factors are modules over different groups or primes")
    mats = [np.kron(a, b) % m1.p for a, b in zip(m1.gen_matrices, m2.gen_matrices)]
    return GModule(g1, m1.p, m1.dim * m2.dim, mats)


def hom_space(m1: GModule, m2: GModule) -> list[np.ndarray]:
    """Basis of {X : M1(g) X = X M2(g) for all g}, i.e. of Hom_G(m1, m2)."""
    p, d1, d2 = m1.p, m1.dim, m2.dim
    if not m1.gen_matrices:
        return [e.reshape(d1, d2) for e in np.eye(d1 * d2, dtype=np.int64)]
    blocks = [np.kron(a, linalg.identity(d2)) - np.kron(linalg.identity(d1), b.T)
              for a, b in zip(m1.gen_matrices, m2.gen_matrices)]
    return [v.reshape(d1, d2) for v in linalg.kernel_basis(np.vstack(blocks) % p, p)]


def module_iso(m1: GModule, m2: GModule, seed: int = 0, budget: int = 200) -> np.ndarray | None:
    """An invertible X with M1(g) X = X M2(g) for all g, or None.

    Quick rejection by word traces (sampled, seeded), then a search of the
    intertwiner space: single basis elements first, then random combinations.
    """
    if m1.p != m2.p or m1.dim != m2.dim or len(m1.gen_matrices) != len(m2.gen_matrices):
        return None
    p = m1.p
    rng = random.Random(seed)
    ngens = len(m1.gen_matrices)
    for _ in range(30):
        word = [rng.randrange(ngens) for _ in range(rng.randrange(1, 6))] if ngens else []
        if int(np.trace(word_matrix(m1, word)) % p) != int(np.trace(word_matrix(m2, word)) % p):
            return None
    basis = hom_space(m1, m2)
    if not basis:
        return None
    for x in basis:
        if is_invertible(x, p):
            return x
    for _ in range(budget):
        x = sum(rng.randrange(p) * b for b in basis) % p
        if is_invertible(x, p):
            return x
    return None
