import dataclasses
import gc
import random
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from heartproof import linalg, modules, perm
from heartproof.groups import (PermGroup, alternating_group, mathieu_group, psl2_group,
                               symmetric_group)
from heartproof.modules import commutant_dim, heart, heart_matrix, is_irreducible, judge_heart

from intertwiners import is_invertible, module_iso, permutation_module, tensor, word_matrix
from kronecker import kronecker_commutant_dim

GOLDEN = Path(__file__).parent / "golden"


def cyclic5():
    return PermGroup([perm.parse_perm("(0 1 2 3 4)")], 5)


def assert_same_result(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def assert_invariant(witness, mats, p):
    rk = linalg.rank(witness, p)
    assert 0 < rk < mats[0].shape[0]
    for m in mats:
        stacked, piv = linalg.rref(np.vstack([witness, (witness @ m) % p]), p)
        assert len(piv) == rk, "claimed invariant subspace is not invariant"


def test_permutation_module_traces():
    pm = permutation_module(symmetric_group(3), 5)
    assert pm.dim == 3
    assert int(np.trace(pm.gen_matrices[0])) == 1  # transposition fixes one point
    trivial = permutation_module(PermGroup([], degree=4), 7)
    assert trivial.gen_matrices == []
    a5 = permutation_module(alternating_group(5), 7)
    five_cycle = a5.gen_matrices[1]  # (0 1 2 3 4) image
    assert int(np.trace(five_cycle)) == 0


def test_heart_dimension_law():
    for n in range(5, 13):
        for p in (3, 5, 7, 11, 13):
            h = heart(symmetric_group(n), p)
            assert h.dim == (n - 2 if n % p == 0 else n - 1)
            assert h.kind == ("quotient" if n % p == 0 else "hyperplane")


def test_heart_examples():
    assert heart(alternating_group(5), 7).dim == 4
    assert heart(symmetric_group(7), 7).dim == 5
    assert heart(mathieu_group(11), 5).dim == 10


def test_heart_warns_intransitive():
    g = PermGroup([perm.parse_perm("(0 1)", 5)], 5)
    # the warning comes where the heart is judged: on a miss, not on a hit,
    # and not where `heart --dump` rebuilds the matrices
    with pytest.warns(UserWarning, match="intransitive"):
        judged = judge_heart(g, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert judge_heart(g, 3) is judged
        assert heart(g, 3).dim == judged.dim


def count_heart_matrix(monkeypatch) -> list[int]:
    """Count the calls of `heart_matrix` from now on, in calls[0]."""
    calls = [0]

    def counted(*args, _f=heart_matrix):
        calls[0] += 1
        return _f(*args)

    monkeypatch.setattr(modules, "heart_matrix", counted)
    return calls


def test_heart_is_memoised_per_group(monkeypatch):
    calls = count_heart_matrix(monkeypatch)
    g = mathieu_group(11)
    first = judge_heart(g, 5)
    assert first == modules.HeartVerdict(10, "hyperplane", None, 1)
    assert calls == [len(g.generators)]
    # a hit is the same record and builds no matrix
    assert judge_heart(g, 5) is first and calls == [len(g.generators)]
    # another p, or an equal group built afresh, is another entry
    judge_heart(g, 7)
    same = PermGroup(list(g.generators), g.degree)
    assert judge_heart(same, 5) == first and calls == [3 * len(g.generators)]
    assert modules._HEARTS[g] == {5: first, 7: judge_heart(g, 7)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.commutant = 2


def test_heart_entry_goes_with_its_group():
    g = PermGroup([perm.conjugate(x, (1, 0, 3, 5, 2, 4))
                   for x in alternating_group(6).generators], 6)
    judged = judge_heart(g, 7)
    assert dict(modules._HEARTS) == {g: {7: judged}}
    # the map holds the group weakly and the record holds no group
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None and len(modules._HEARTS) == 0


def test_word_relation_soundness():
    rng = random.Random(3)
    g = alternating_group(6)
    for p in (5, 7):
        h = heart(g, p)
        for _ in range(100):
            word = [rng.randrange(len(g.generators)) for _ in range(rng.randrange(1, 9))]
            element = perm.identity(g.degree)
            for i in word:
                element = perm.mult(element, g.generators[i])
            assert np.array_equal(word_matrix(h, word), heart_matrix(element, p))


def test_meataxe_irreducible_heart():
    h = heart(alternating_group(5), 7)
    r = is_irreducible(h)
    assert r.irreducible
    assert len(r.null_space) == len(r.factor) - 1
    assert commutant_dim(h, r) == kronecker_commutant_dim(h) == 1


def test_meataxe_reducible_permutation_module():
    pm = permutation_module(alternating_group(5), 7)
    r = is_irreducible(pm)
    assert not r.irreducible
    w = r.invariant_subspace
    assert_invariant(w, pm.gen_matrices, 7)
    # the witness is inside the zero-sum hyperplane or is the constants line
    sums = w.sum(axis=1) % 7
    assert np.all(sums == 0) or w.shape[0] == 1


def test_meataxe_cyclic_heart_split():
    # 11 = 1 mod 5: the cyclic heart splits into eigenlines
    h = heart(cyclic5(), 11)
    r = is_irreducible(h)
    assert not r.irreducible
    assert_invariant(r.invariant_subspace, h.gen_matrices, 11)
    # four distinct eigenlines: the diagonal algebra
    assert kronecker_commutant_dim(h) == 4


def test_cyclic_heart_f7_is_simple_not_absolutely():
    # 7 has order 4 mod 5, so the quartic cyclotomic factor stays irreducible
    h = heart(cyclic5(), 7)
    r = is_irreducible(h)
    assert r.irreducible
    assert len(r.null_space) == 4
    assert commutant_dim(h, r) == kronecker_commutant_dim(h) == 4


def test_commutant_examples():
    h = heart(symmetric_group(5), 7)
    assert commutant_dim(h, is_irreducible(h)) == kronecker_commutant_dim(h) == 1
    ident = modules.GModule(cyclic5(), 5, 3, [linalg.identity(3)])
    assert not is_irreducible(ident).irreducible
    assert kronecker_commutant_dim(ident) == 9


def test_commutant_certificate_shapes():
    # dimension 1: no element or factor in the certificate
    line = modules.GModule(cyclic5(), 7, 1, [linalg.asmat([[2]], 7)])
    r = is_irreducible(line)
    assert r.irreducible and r.factor is None and r.null_space is None and r.basis is None
    assert commutant_dim(line, r) == kronecker_commutant_dim(line) == 1
    # a linear certified factor (e = 1) and a wider one (e > 1)
    widths = set()
    for g, p in [(alternating_group(5), 7), (symmetric_group(6), 5), (mathieu_group(11), 5),
                 (alternating_group(7), 3), (symmetric_group(8), 11)]:
        h = heart(g, p)
        r = is_irreducible(h)
        assert r.irreducible
        widths.add(len(r.null_space) > 1)
        assert commutant_dim(h, r) == kronecker_commutant_dim(h) == 1
    assert widths == {False, True}


def test_commutant_rejects_reducible_and_foreign_results():
    # each module's own result serves its commutant
    for own in [heart(symmetric_group(11), 5),
                modules.GModule(cyclic5(), 5, 10, [linalg.identity(10)]),
                modules.GModule(cyclic5(), 5, 10, [linalg.identity(10)] * 2)]:
        r = is_irreducible(own)
        assert not r.irreducible or commutant_dim(own, r) == 1
    h = heart(cyclic5(), 11)
    r = is_irreducible(h)
    assert not r.irreducible
    with pytest.raises(ValueError):
        commutant_dim(h, r)
    # a certificate (e = 5) for another module of the same dimension: its
    # null vector does not spin up to the whole of the trivial module
    s = is_irreducible(heart(mathieu_group(11), 5))
    trivial = modules.GModule(cyclic5(), 5, 10, [linalg.identity(10)])
    with pytest.raises(ValueError):
        commutant_dim(trivial, s)
    # the heart of S11 has as many generators, but the replayed words do
    # not give back the stored basis
    with pytest.raises(ValueError, match="does not match"):
        commutant_dim(heart(symmetric_group(11), 5), s)
    # a certificate with e = 1 is replayed too: the S11 heart's at p = 5 on a
    # module of the same dimension whose two generators are the identity
    line = is_irreducible(heart(symmetric_group(11), 5))
    assert len(line.null_space) == 1
    identities = modules.GModule(cyclic5(), 5, 10, [linalg.identity(10)] * 2)
    with pytest.raises(ValueError, match="does not match"):
        commutant_dim(identities, line)


def test_commutant_reads_the_certificate(monkeypatch):
    def rebuilt(*args, **kwargs):
        raise AssertionError("commutant_dim recomputed what the MeatAxe found")

    h = heart(mathieu_group(11), 5)
    wide = is_irreducible(h)
    line_heart = heart(symmetric_group(8), 11)
    line = is_irreducible(line_heart)
    assert (len(wide.null_space), len(line.null_space)) == (5, 1)
    shapes, rref = [], linalg.rref

    def recorded(m, p):
        shapes.append(m.shape)
        return rref(m, p)

    monkeypatch.setattr(linalg, "rref", recorded)
    for module, name in [(linalg, "asmat"), (linalg, "poly_of_matrix"),
                         (linalg, "kernel_basis"), (modules, "kernel_basis"), (modules, "spin")]:
        monkeypatch.setattr(module, name, rebuilt)
    assert commutant_dim(h, wide) == 1
    # one inverse of the standard basis, then a rank with one column per w in N
    assert shapes == [(10, 20), (2 * 10 * 10, 5)]
    # e = 1: after the replay of N[0] the stored nullity answers, with no rank
    assert commutant_dim(line_heart, line) == 1 and len(shapes) == 2


def test_meataxe_seed_determinism():
    """Two fresh searches give one certificate: the only randomness is Random(0)."""
    h = heart(mathieu_group(11), 5)
    a = is_irreducible(h)
    b = is_irreducible(h)
    assert a is not b
    assert a.irreducible and b.irreducible
    assert (a.attempt, a.factor, a.recipe) == (b.attempt, b.factor, b.recipe)
    assert np.array_equal(a.null_space, b.null_space) and np.array_equal(a.basis, b.basis)


def psl2_16_heart(p):
    # no generator attempt decides: the certificate comes at attempt 4
    h = heart(psl2_group(2, 4), p)
    assert len(h.gen_matrices) == 4
    return h


def memo_groups():
    """S10 and M11 at p = 5, the 7-cycle at p = 11, PSL2(16) at p = 3."""
    seven = PermGroup([perm.parse_perm("(0 1 2 3 4 5 6)")], 7)
    return [(symmetric_group(10), 5), (mathieu_group(11), 5), (seven, 11), (psl2_group(2, 4), 3)]


def test_meataxe_memo_hit_equals_a_fresh_run():
    groups = memo_groups()
    first = [judge_heart(g, p) for g, p in groups]
    assert all(judge_heart(g, p) is j for (g, p), j in zip(groups, first))
    fresh = [is_irreducible(heart(g, p)) for g, p in groups]
    # the 7-cycle's heart splits at p = 11; PSL2(16)'s is decided by a random draw
    assert [r.irreducible for r in fresh] == [True, True, False, True]
    assert fresh[3].attempt == 4
    for (g, p), hit, r in zip(groups, first, fresh):
        h = heart(g, p)
        assert (hit.dim, hit.kind) == (h.dim, h.kind)
        if r.irreducible:
            assert hit.invariant_dim is None
            assert hit.commutant == commutant_dim(h, r) == kronecker_commutant_dim(h)
        else:
            assert (hit.invariant_dim, hit.commutant) == (len(r.invariant_subspace), None)


def test_meataxe_generator_verdicts_ignore_the_seed():
    """Two fresh searches give one verdict, decided within the generator
    matrices and the first 8 draws: the attempts every seed shared before
    the search became seed-free."""
    prefix_decided = [(psl2_group(2, 4), 3), (psl2_group(2, 4), 7), (psl2_group(5, 2), 3)]
    for g, p in memo_groups()[:3] + prefix_decided:
        base = is_irreducible(heart(g, p))
        assert base.attempt is None or base.attempt < len(g.generators) + 8
        assert_same_result(is_irreducible(heart(g, p)), base)
    for g, p in prefix_decided:
        assert is_irreducible(heart(g, p)).attempt >= len(g.generators)


def test_meataxe_attempts_are_the_generators_then_one_random_0_stream(monkeypatch):
    """Attempt k gets the k-th generator matrix, then the (k - len(gens))-th
    `_random_algebra_element` of one Random(0), until one decides or
    `ATTEMPTS` have run."""
    attempt, seen = modules._attempt, []

    def recorded(a, k, *rest, refuse_below):
        seen.append((k, a))
        return attempt(a, k, *rest) if k >= refuse_below else None

    # (heart, attempts refused below, attempt that decides, or None)
    for h, refuse_below, decided in [(psl2_16_heart(3), 0, 4), (psl2_16_heart(3), 25, 27),
                                     (heart(mathieu_group(11), 5), 30, None)]:
        monkeypatch.setattr(modules, "_attempt",
                            lambda *args, r=refuse_below: recorded(*args, refuse_below=r))
        monkeypatch.setattr(modules, "ATTEMPTS", 30)
        seen.clear()
        if decided is None:
            with pytest.raises(modules.RandomnessExhausted, match="in 30 attempts"):
                is_irreducible(h)
            attempts = 30
        else:
            assert is_irreducible(h).attempt == decided
            attempts = decided + 1
        mats = h.gen_matrices
        rng = random.Random(0)
        expected = mats + [modules._random_algebra_element(mats, h.p, rng)
                           for _ in range(attempts - len(mats))]
        assert [k for k, _ in seen] == list(range(attempts))
        assert all(np.array_equal(a, b) for (_, a), b in zip(seen, expected))


def test_meataxe_budget_bounds_memoised_attempts(monkeypatch):
    """`ATTEMPTS` bounds all attempts, the generator matrices included."""
    h, s10 = psl2_16_heart(3), heart(symmetric_group(10), 5)
    default = modules.ATTEMPTS
    for module, attempts in [(h, 4), (s10, 0)]:
        monkeypatch.setattr(modules, "ATTEMPTS", default)
        r = is_irreducible(module)
        assert r.attempt == attempts
        monkeypatch.setattr(modules, "ATTEMPTS", attempts)
        with pytest.raises(modules.RandomnessExhausted, match=f"in {attempts} attempts"):
            is_irreducible(module)
        # the verdict of attempt k needs k + 1 attempts
        monkeypatch.setattr(modules, "ATTEMPTS", attempts + 1)
        assert_same_result(is_irreducible(module), r)


def sweep_groups():
    """S5-S12, A5-A12, the five Mathieu groups, 14 PSL2(q) and the cyclic and
    dihedral groups of degree 5-13."""
    def cyclic(n):
        return PermGroup([tuple((i + 1) % n for i in range(n))], n)

    def dihedral(n):
        return PermGroup([cyclic(n).generators[0], tuple(-i % n for i in range(n))], n)

    psl2 = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1),
            (19, 1), (23, 1), (5, 2), (3, 3), (29, 1)]
    return ([symmetric_group(n) for n in range(5, 13)]
            + [alternating_group(n) for n in range(5, 13)]
            + [mathieu_group(n) for n in (11, 12, 22, 23, 24)]
            + [psl2_group(ell, r) for ell, r in psl2]
            + [cyclic(n) for n in range(5, 14)] + [dihedral(n) for n in range(5, 14)])


def test_meataxe_prefix_decides_every_swept_heart(monkeypatch):
    """The generator matrices and the first 8 draws decide every heart here,
    so every seed got the verdict of the seed-free search before it became
    the only one; a heart that needs a later attempt is named."""
    hearts = [heart(g, p) for g in sweep_groups() for p in (3, 5, 7, 11, 13)]
    attempt, last = modules._attempt, []

    def recorded(a, k, *rest):
        last[-1] = k
        return attempt(a, k, *rest)

    monkeypatch.setattr(modules, "_attempt", recorded)
    late = []
    for h in hearts:
        last.append(None)
        is_irreducible(h)
        if last[-1] is not None and last[-1] >= len(h.gen_matrices) + 8:
            late.append((h.group.degree, h.group.order, h.p))
    assert len(hearts) == 265 and late == []


def test_tensor():
    g = alternating_group(5)
    h = heart(g, 7)
    one = modules.GModule(g, 7, 1, [linalg.identity(1) for _ in g.generators])
    t = tensor(h, one)
    assert t.dim == h.dim
    x = module_iso(t, h)
    assert x is not None
    t2 = tensor(h, h)
    assert t2.dim == 16
    rng = random.Random(4)
    for _ in range(20):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 6))]
        ta = int(np.trace(word_matrix(t2, word))) % 7
        tb = int(np.trace(word_matrix(h, word))) % 7
        assert ta == tb * tb % 7
    with pytest.raises(ValueError, match="different groups"):
        tensor(h, heart(symmetric_group(5), 7))


def test_module_iso():
    g = alternating_group(5)
    h = heart(g, 7)
    x = module_iso(h, h)
    assert x is not None and is_invertible(x, 7)
    pm = permutation_module(g, 7)
    assert module_iso(h, pm) is None  # dims differ
    # same dim, different trace profile: heart vs 4-dim direct sum of trivials
    quad_triv = modules.GModule(g, 7, 4, [linalg.identity(4) for _ in g.generators])
    assert module_iso(h, quad_triv) is None


def test_odd_prime_required():
    with pytest.raises(ValueError):
        heart(symmetric_group(5), 4)
    with pytest.raises(ValueError):
        heart(symmetric_group(5), 2)


def test_modulus_guard_at_the_int64_bound():
    # the largest prime with 4 p^2 < 2^63 and the smallest one past it
    below, above = 1518500213, 1518500279
    h = heart(alternating_group(5), below)
    assert h.dim == 4
    with pytest.raises(ValueError, match=r"dim \* p\^2 < 2\^63"):
        heart(alternating_group(5), above)
    rng = random.Random(0)
    worst = [[below - 1] * 4 for _ in range(4)]
    drawn = [[rng.randrange(below) for _ in range(4)] for _ in range(4)]
    for a, b in [(worst, worst), (worst, drawn), (drawn, drawn)]:
        exact = [[sum(a[i][k] * b[k][j] for k in range(4)) % below for j in range(4)]
                 for i in range(4)]
        got = linalg.mat_mul(linalg.asmat(a, below), linalg.asmat(b, below), below)
        assert got.tolist() == exact
    r = is_irreducible(h)
    assert r.irreducible and commutant_dim(h, r) == 1


def test_dump_roundtrip_and_golden():
    h = heart(alternating_group(5), 7)
    text = modules.dumps(h)
    assert text == (GOLDEN / "heart_a5_f7.dump").read_text()
    # header "p dim ngens", then each generator matrix row by row
    lines = text.splitlines()
    assert lines[0] == "7 4 2" and len(lines) == 1 + 2 * 4
    rows = [[int(t) for t in line.split()] for line in lines[1:]]
    assert all(np.array_equal(rows[4 * k:4 * k + 4], m) for k, m in enumerate(h.gen_matrices))
