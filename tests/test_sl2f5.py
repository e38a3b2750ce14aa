import numpy as np
import pytest

from heartproof import linalg, modules
from heartproof.modules import BadCongruence, sl2f5_two_dim_reps

from intertwiners import is_invertible, module_iso, tensor
from kronecker import kronecker_commutant_dim


def test_bad_congruence():
    with pytest.raises(BadCongruence):
        sl2f5_two_dim_reps(7)
    with pytest.raises(BadCongruence):
        sl2f5_two_dim_reps(5)
    with pytest.raises(BadCongruence):
        sl2f5_two_dim_reps(13)


def test_pair_at_11():
    p = 11
    pair = sl2f5_two_dim_reps(p)
    assert pair.group.order == 120
    assert pair.quotient_degree5.degree == 5
    assert pair.quotient_degree5.order == 60
    v1, v2 = pair.v1, pair.v2
    for m in v1.gen_matrices + v2.gen_matrices:
        assert int((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % p) == 1
    for v in (v1, v2, pair.pullback_heart):
        r = modules.is_irreducible(v)
        assert modules.commutant_dim(v, r) == kronecker_commutant_dim(v) == 1
    assert module_iso(v1, v2) is None
    t = tensor(v1, v2)
    x = module_iso(t, pair.pullback_heart)
    assert x is not None and is_invertible(x, p)
    for a, b in zip(t.gen_matrices, pair.pullback_heart.gen_matrices):
        assert np.array_equal((a @ x) % p, (x @ b) % p)


def test_deterministic():
    a = sl2f5_two_dim_reps(11)
    b = sl2f5_two_dim_reps(11)
    for x, y in zip(a.v1.gen_matrices + a.v2.gen_matrices,
                    b.v1.gen_matrices + b.v2.gen_matrices):
        assert np.array_equal(x, y)


def _power(m, e, p):
    out = linalg.identity(m.shape[0])
    for _ in range(e):
        out = linalg.mat_mul(out, m, p)
    return out


def test_binary_icosahedral_relations():
    pair = sl2f5_two_dim_reps(19)
    p = 19
    for mod in (pair.v1, pair.v2):
        s, t = mod.gen_matrices
        minus = (p - 1) * linalg.identity(2) % p
        assert np.array_equal(_power(s, 3, p), minus)
        assert np.array_equal(_power(t, 5, p), minus)
        st = linalg.mat_mul(s, t, p)
        assert np.array_equal(_power(st, 2, p), minus)
