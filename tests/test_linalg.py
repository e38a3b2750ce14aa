import random

import numpy as np
import pytest

from heartproof import linalg
from heartproof.linalg import (
    asmat,
    charpoly,
    identity,
    kernel_basis,
    mat_inv,
    mat_mul,
    poly_of_matrix,
    rank,
)


def test_kernel_examples():
    assert len(kernel_basis(linalg.zeros(3, 3), 5)) == 3
    assert kernel_basis(identity(4), 7) == []
    k = kernel_basis(asmat([[1, 1], [2, 2]], 3), 3)
    assert len(k) == 1
    v = k[0]
    assert list(v) == [2, 1] or list(v) == [1, 2]
    m = asmat([[1, 1], [2, 2]], 3)
    assert np.all((m @ v) % 3 == 0)


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        r, c = rng.randrange(1, 8), rng.randrange(1, 8)
        m = asmat([[rng.randrange(p) for _ in range(c)] for _ in range(r)], p)
        basis = kernel_basis(m, p)
        assert rank(m, p) + len(basis) == c
        for v in basis:
            assert np.all((m @ v) % p == 0)


def test_inverse_random():
    rng = random.Random(1)
    done = 0
    while done < 40:
        p = rng.choice([3, 5, 7, 11, 13])
        d = rng.randrange(1, 13)
        m = asmat([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
        if rank(m, p) < d:
            continue
        inv = mat_inv(m, p)
        assert np.array_equal(mat_mul(m, inv, p), identity(d))
        done += 1


def test_singular_inverse_raises():
    with pytest.raises(linalg.SingularMatrix):
        mat_inv(asmat([[1, 1], [2, 2]], 5), 5)


def test_charpoly_cayley_hamilton():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 13])
        d = rng.randrange(1, 9)
        m = asmat([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p)
        cp = charpoly(m, p)
        assert len(cp) == d + 1 and cp[-1] == 1
        assert np.all(poly_of_matrix(cp, m, p) == 0)


def test_charpoly_known():
    # diag(1, 2) over F_5: (x-1)(x-2) = x^2 - 3x + 2
    assert charpoly(asmat([[1, 0], [0, 2]], 5), 5) == [2, 2, 1]
