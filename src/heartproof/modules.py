"""F_p[G]-modules as matrix representations of permutation groups.

Modules act on row vectors from the right, so the matrix of a word equals
the product of the generator matrices in the same order. The permutation
module sends g to the matrix with a 1 in position (i, g[i]); the heart is
its zero-sum hyperplane, quotiented by the constants when p divides the
degree.

Irreducibility is decided by the MeatAxe: a randomized search for an
algebra element with an irreducible charpoly factor of minimal nullity,
combined with spin-up in the module and its dual (Norton's criterion).
The commutant of an irreducible module is then read from that certificate,
which keeps the null space and the standard basis the MeatAxe spun. The
search is seed-free: it tries the generator matrices themselves, then random
elements drawn from one Random(0) stream, at most `ATTEMPTS` in all. The
monic irreducible factors of a charpoly are unique and are tried in one
fixed order, so the verdict is a function of the module.

`judge_heart` memoises hearts per process, one entry per heart under the
value (generators, degree, p), never the group, so that the memo keeps no
evicted group or its stabilizer chain alive. The entry is made once, on a
miss, where the heart is built and the intransitive-action warning given.
It holds the heart's matrices, dimension and kind, its MeatAxe verdict and
its commutant dimension, None when the heart is reducible. At most
`MEMO_BYTES` are kept, oldest entry first, and an entry larger than that
alone is not kept. An entry and its verdict are frozen and their arrays are
read-only, since every later caller shares them.
"""

from __future__ import annotations

import random
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np

from . import gfpoly, linalg
from .fields import is_prime
from .groups import PermGroup, subgroup_classes, coset_action
from .linalg import identity, kernel_basis, mat_mul
from .perm import Perm
from .weights import heart_dim


class RandomnessExhausted(RuntimeError):
    """MeatAxe ran out of attempts: `ATTEMPTS` elements decided nothing."""


class BadCongruence(ValueError):
    """Raised when p is not +-1 mod 5 where that congruence is required."""


def _require_odd_prime(p: int, dim: int):
    if p < 3 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    if dim * p * p >= 2 ** 63:
        raise ValueError(f"p = {p} is too large for dimension {dim}: "
                         "exact int64 arithmetic needs dim * p^2 < 2^63")


@dataclass
class GModule:
    """Matrix representation: one invertible matrix per group generator."""

    group: PermGroup | None
    p: int
    dim: int
    gen_matrices: list[np.ndarray]


@dataclass
class HeartModule(GModule):
    kind: str = "hyperplane"  # or "quotient" when p | n


def heart_matrix(g: Perm, p: int) -> np.ndarray:
    """Matrix of g on the heart, in the pinned basis.

    For p not dividing n the basis is {e_i - e_{n-1} : i < n-1}; for p | n
    that hyperplane is further reduced modulo the constants by substituting
    the last basis vector with minus the sum of the others.
    """
    n = len(g)
    m = n - 1
    h = linalg.zeros(m, m)
    gn = g[n - 1]
    for i in range(m):
        gi = g[i]
        if gi != n - 1:
            h[i, gi] += 1
        if gn != n - 1:
            h[i, gn] -= 1
    h %= p
    if n % p != 0:
        return h
    return (h[: m - 1, : m - 1] - h[: m - 1, m - 1][:, None]) % p


def heart(g: PermGroup, p: int) -> HeartModule:
    """The heart of the permutation representation of g over F_p."""
    n = g.degree
    _require_odd_prime(p, n - 1)  # n - 1 bounds the heart's dimension
    dim = heart_dim(n, p)
    if dim < 1:
        raise ValueError("module dimension must be >= 1")
    if not g.is_transitive():
        warnings.warn("heart of an intransitive action; dimension laws still apply", stacklevel=2)
    kind = "quotient" if n % p == 0 else "hyperplane"
    return HeartModule(g, p, dim, [heart_matrix(x, p) for x in g.generators], kind=kind)


def spin(v: np.ndarray, mats: list[np.ndarray], p: int):
    """Spin v into a basis of the submodule it generates, keeping how each
    row was made (the Holt-Rees standard basis).

    Returns the rows and a recipe: rows[0] = v and rows[i] = rows[src] @
    mats[g] for recipe[i - 1] = (src, g). Membership is tested against a
    semi-echelon copy of the rows, one vector at a time.
    """
    rows = [v % p]
    recipe: list[tuple[int, int]] = []
    # (pivot, row scaled to 1 there), each row zero at the earlier pivots
    echelon: list[tuple[int, np.ndarray]] = []

    def add(x: np.ndarray) -> bool:
        for piv, row in echelon:
            if x[piv]:
                x = (x - x[piv] * row) % p
        nz = np.flatnonzero(x)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        echelon.append((piv, x * pow(int(x[piv]), -1, p) % p))
        return True

    add(rows[0])
    i = 0
    while i < len(rows) and len(rows) < len(v):
        for g, m in enumerate(mats):
            w = (rows[i] @ m) % p
            if add(w):
                rows.append(w)
                recipe.append((i, g))
        i += 1
    return np.array(rows), recipe


@dataclass(frozen=True, eq=False)
class IrreducibilityResult:
    """A MeatAxe verdict: echelonized rows of an invariant subspace if
    reducible; if irreducible of dimension > 1, the certificate: the element
    A drawn at `attempt` has the charpoly factor f = `factor` of nullity deg f,
    N = `null_space` is the row null space of f(A), (`basis`, `recipe`) = spin(N[0]).
    Results compare and hash by identity."""

    irreducible: bool
    invariant_subspace: np.ndarray | None = None
    attempt: int | None = None
    factor: tuple[int, ...] | None = None
    null_space: np.ndarray | None = None
    basis: np.ndarray | None = None
    recipe: tuple[tuple[int, int], ...] | None = None


# Bytes the heart memo keeps at most: about 160 hearts of dimension 20 on
# two generators fit, and no run of new hearts grows the process past it.
MEMO_BYTES = 2 * 2**20
# MeatAxe attempts per search, the generator matrices included.
ATTEMPTS = 200
# Python objects around each entry kept (key, entry, module, result, tuples,
# array headers, dict slot), measured with tracemalloc; the arrays, recipe
# steps and the key's generator tuples are counted on their own.
_OBJECT_BYTES = 1600


@dataclass(frozen=True, eq=False)
class HeartVerdict:
    """A heart (holding no group), its MeatAxe verdict and its commutant
    dimension, None when the heart is reducible; the memo counts `nbytes`."""

    module: HeartModule
    meataxe: IrreducibilityResult
    commutant: int | None
    nbytes: int


class _Memo:
    """(generators, degree, p) -> `HeartVerdict`, at most `MEMO_BYTES` in
    all, oldest dropped first. Not locked: heartproof judges hearts from one
    thread."""

    def __init__(self):
        self.entries: OrderedDict[tuple, HeartVerdict] = OrderedDict()
        self.nbytes = 0

    def keep(self, key: tuple, entry: HeartVerdict) -> HeartVerdict:
        """Keep `entry` under `key`, unless it alone exceeds `MEMO_BYTES`;
        either way return it."""
        if entry.nbytes <= MEMO_BYTES:
            self.entries[key] = entry
            self.nbytes += entry.nbytes
            while self.nbytes > MEMO_BYTES:
                _, old = self.entries.popitem(last=False)
                self.nbytes -= old.nbytes
        return entry


_MEMO = _Memo()


def judge_heart(g: PermGroup, p: int) -> HeartVerdict:
    """The heart of g over F_p, its MeatAxe verdict and, when irreducible,
    its commutant dimension, kept in the memo (module docstring)."""
    key = (g.generators, g.degree, p)
    kept = _MEMO.entries.get(key)
    if kept is not None:
        return kept
    module = heart(g, p)
    module.group = None  # the memo keeps no group alive
    meataxe = is_irreducible(module)
    commutant = commutant_dim(module, meataxe) if meataxe.irreducible else None
    arrays = module.gen_matrices + [x for x in (meataxe.invariant_subspace, meataxe.null_space,
                                                meataxe.basis) if x is not None]
    for x in arrays:
        x.flags.writeable = False
    # a recipe step is a tuple of two small ints, 64 bytes; a generator in
    # the key is a tuple of n pointers
    nbytes = (_OBJECT_BYTES + sum(x.nbytes for x in arrays) + 64 * len(meataxe.recipe or ())
              + (8 * g.degree + 56) * len(g.generators))
    return _MEMO.keep(key, HeartVerdict(module, meataxe, commutant, nbytes))


def _random_algebra_element(mats: list[np.ndarray], p: int, rng: random.Random) -> np.ndarray:
    dim = mats[0].shape[0]
    a = linalg.zeros(dim, dim)
    for _ in range(rng.randrange(2, 4)):
        term = identity(dim)
        for _ in range(rng.randrange(1, 4)):
            term = mat_mul(term, mats[rng.randrange(len(mats))], p)
        a = (a + rng.randrange(1, p) * term) % p
    return a


def _attempt(a: np.ndarray, attempt: int, mats: list[np.ndarray],
             p: int) -> IrreducibilityResult | None:
    """One MeatAxe attempt on the algebra element a: a verdict, or None."""
    dim = len(a)
    cp = linalg.charpoly(a, p)
    factors = gfpoly.factor_squarefree(gfpoly.squarefree_part(cp, p), p)
    for f in sorted(factors, key=lambda f: (len(f), f)):
        fa = linalg.poly_of_matrix(f, a, p)
        null_rows = kernel_basis(fa.T, p)
        if not null_rows:
            continue
        rows, recipe = spin(null_rows[0], mats, p)
        if rows.shape[0] < dim:
            return IrreducibilityResult(False, invariant_subspace=linalg.rref(rows, p)[0])
        dual_rows, _ = spin(kernel_basis(fa, p)[0], [m.T.copy() for m in mats], p)
        if dual_rows.shape[0] < dim:
            sub = np.array(kernel_basis(dual_rows, p))
            return IrreducibilityResult(False, invariant_subspace=linalg.rref(sub, p)[0])
        if len(null_rows) == len(f) - 1:
            return IrreducibilityResult(True, attempt=attempt, factor=tuple(int(c) for c in f),
                                        null_space=np.array(null_rows), basis=rows,
                                        recipe=tuple(recipe))
    return None


def is_irreducible(module: GModule) -> IrreducibilityResult:
    """MeatAxe with Norton's criterion.

    Reducible verdicts carry an explicit invariant subspace. Irreducible
    verdicts require an algebra element A and an irreducible charpoly
    factor f with nullity(f(A)) = deg f whose null vector spins up to the
    whole module in both the module and its dual. Attempts 0, 1, ... take
    the generator matrices, then random elements drawn from Random(0), up to
    `ATTEMPTS` in all.
    """
    p, dim, mats = module.p, module.dim, module.gen_matrices
    if dim < 1:
        raise ValueError("module dimension must be >= 1")
    if dim == 1:
        return IrreducibilityResult(True)
    if not mats:
        return IrreducibilityResult(False, invariant_subspace=identity(dim)[:1])
    rng = random.Random(0)
    drawn = (_random_algebra_element(mats, p, rng) for _ in count())
    for attempt, a in enumerate(islice(chain(mats, drawn), ATTEMPTS)):
        verdict = _attempt(a, attempt, mats, p)
        if verdict is not None:
            return verdict
    raise RandomnessExhausted(f"no singular element of minimal nullity in {ATTEMPTS} "
                              "attempts (modules.ATTEMPTS)")


def commutant_dim(module: GModule, result: IrreducibilityResult) -> int:
    """Dimension of End_G(V) = {X : X M(g) = M(g) X for all generators g}.

    Read from `result`, the irreducible `is_irreducible` verdict for this
    module, without a d^2-sized system (Holt-Rees, Testing modules for
    irreducibility, 1994). Every X in End_G(V) commutes with f(A), so it maps
    N into itself; and v = N[0] spins up to V, so X is fixed by vX and
    dim End_G(V) <= e = dim N. For w in N, the map X_w sending the standard
    basis to the words of its recipe applied to w is the only candidate with
    vX = w, and End_G(V) is the null space of w -> ([X_w, M(g)])_g on N.
    """
    if not result.irreducible:
        raise ValueError("commutant_dim needs an irreducible MeatAxe result")
    p, d, mats = module.p, module.dim, module.gen_matrices
    if d == 1:
        return 1
    if (result.basis is None or result.basis.shape != (d, d)
            or max(g for _, g in result.recipe) >= len(mats)):
        raise ValueError("irreducibility certificate does not match this module")
    e = len(result.null_space)
    # replaying N[0] through the recipe must give back the stored basis, also
    # for e = 1, or the certificate was made for another module
    images = np.empty((d, e, d), dtype=np.int64)
    images[0] = result.null_space
    for i, (src, g) in enumerate(result.recipe, start=1):
        images[i] = (images[src] @ mats[g]) % p
    if not np.array_equal(images[:, 0], result.basis):
        raise ValueError("irreducibility certificate does not match this module")
    if e == 1:
        return 1
    # xs[k] = basis^-1 W_k is the one candidate X with v X = N[k]
    xs = np.einsum("ij,jwk->wik", linalg.mat_inv(result.basis, p), images) % p
    # one row per (generator, entry), one column per w: rref stops after e columns
    brackets = np.concatenate([(xs @ m - m @ xs).reshape(e, d * d) for m in mats], axis=1)
    return e - linalg.rank(brackets.T % p, p)


def dumps(module: GModule) -> str:
    """Text dump: header 'p dim ngens', then matrices row-major in decimal."""
    lines = [f"{module.p} {module.dim} {len(module.gen_matrices)}"]
    for m in module.gen_matrices:
        for row in m:
            lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The two 2-dimensional representations of SL(2, F_5) over F_p, p = +-1 mod 5
# ---------------------------------------------------------------------------

def _sl2_elements_with_trace(p: int, tr: int):
    """SL(2, F_p) elements (a, b, c, d) of the given trace, ascending lex."""
    for a in range(p):
        d = (tr - a) % p
        need = (a * d - 1) % p  # bc must equal ad - 1
        for b in range(p):
            if b == 0:
                if need == 0:
                    for c in range(p):
                        yield (a, 0, c, d)
            else:
                yield (a, b, need * pow(b, -1, p) % p, d)


def _mat2_mult(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


# _closure2 gives up (None) past this many elements: a closure larger than
# the 120 of the binary icosahedral group cannot be it
_CLOSURE2_CAP = 130


def _closure2(gens, p):
    seen = {(1, 0, 0, 1)}
    queue = [(1, 0, 0, 1)]
    while queue:
        x = queue.pop()
        for g in gens:
            y = _mat2_mult(x, g, p)
            if y not in seen:
                if len(seen) >= _CLOSURE2_CAP:
                    return None
                seen.add(y)
                queue.append(y)
    return seen


def _binary_icosahedral_pair(p: int, t_traces: list[int]) -> tuple[tuple, tuple]:
    """First (s, t) in lex order with tr s = 1, tr t in t_traces, tr st = 0,
    |<s, t>| = 120.

    The trace conditions already force s^3 = t^5 = (st)^2 = -1 by
    Cayley-Hamilton, so every candidate pair satisfies the binary
    icosahedral presentation; the order check pins the faithful image.
    """
    t_candidates = sorted(
        x for tr in set(t_traces) for x in _sl2_elements_with_trace(p, tr)
    )
    for s in _sl2_elements_with_trace(p, 1):
        sa, sb, sc, sd = s
        for t in t_candidates:
            ta, tb, tc, td = t
            if (sa * ta + sb * tc + sc * tb + sd * td) % p != 0:
                continue
            closure = _closure2([s, t], p)
            if closure is not None and len(closure) == 120:
                return s, t
    raise RandomnessExhausted("no binary icosahedral pair found")  # unreachable for valid p


def _mat2_to_array(m, p):
    a, b, c, d = m
    return linalg.asmat([[a, b], [c, d]], p)


def _vector_action_perm(m, ell: int) -> Perm:
    """Permutation of the nonzero row vectors of F_ell^2 under v -> v m."""
    a, b, c, d = m
    pts = [(x, y) for x in range(ell) for y in range(ell) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(pts)}
    images = []
    for x, y in pts:
        images.append(index[((x * a + y * c) % ell, (x * b + y * d) % ell)])
    return tuple(images)


def _projective_action_perm(m, ell: int) -> Perm:
    """Permutation of P^1(F_ell) (finite points 0..ell-1, infinity last)."""
    a, b, c, d = m
    inf = ell
    images = []
    for z in range(ell):
        den = (c * z + d) % ell
        num = (a * z + b) % ell
        images.append(inf if den == 0 else num * pow(den, -1, ell) % ell)
    images.append(inf if c % ell == 0 else a * pow(c, -1, ell) % ell)
    return tuple(images)


@dataclass
class Sl2F5Pair:
    """The two 2-dim modules of abstract SL(2, F_5) over F_p and their context."""

    group: PermGroup          # SL(2, F_5) on the 24 nonzero vectors of F_5^2
    v1: GModule
    v2: GModule
    pullback_heart: GModule   # heart of the degree-5 quotient action, same generators
    quotient_degree5: PermGroup


def sl2f5_two_dim_reps(p: int) -> Sl2F5Pair:
    """Two non-isomorphic absolutely irreducible 2-dim modules over F_p.

    Requires p = +-1 mod 5 and p > 5, so that the golden-ratio traces
    (1 +- sqrt 5)/2 exist in F_p. The generator pair satisfies the binary
    icosahedral presentation over F_5 and over F_p, with the two modules
    separated by the trace of the order-10 generator.
    """
    if p <= 5 or p % 5 not in (1, 4):
        raise BadCongruence(f"p = {p} is not +-1 mod 5 (or not > 5)")
    # (1 +- sqrt 5)/2 are the roots of x^2 - x - 1, two linear factors over F_p
    r1, r2 = sorted(-f[0] % p for f in gfpoly.factor_squarefree([p - 1, p - 1, 1], p))

    # canonical generators of SL(2, F_5) satisfying the same presentation
    tau5 = 3  # double root of x^2 - x - 1 over F_5
    s0, t0 = _binary_icosahedral_pair(5, [tau5])
    group = PermGroup(
        [_vector_action_perm(s0, 5), _vector_action_perm(t0, 5)], degree=24
    )
    if group.order != 120:
        raise AssertionError("SL(2,5) vector action has wrong order")

    s, t = _binary_icosahedral_pair(p, [r1, r2])
    got = (t[0] + t[3]) % p
    other = r2 if got == r1 else r1
    s2, t2 = _binary_icosahedral_pair(p, [other])
    v1 = GModule(group, p, 2, [_mat2_to_array(s, p), _mat2_to_array(t, p)])
    v2 = GModule(group, p, 2, [_mat2_to_array(s2, p), _mat2_to_array(t2, p)])

    # degree-5 quotient: projective action mod +-1, then cosets of the first
    # index-5 subgroup of the resulting PSL(2, 5)
    h6 = PermGroup([_projective_action_perm(s0, 5), _projective_action_perm(t0, 5)], degree=6)
    if h6.order != 60:
        raise AssertionError("PSL(2,5) projective action has wrong order")
    classes = sorted(
        (r for r in subgroup_classes(h6) if r.order == 12),
        key=lambda r: sorted(r.elements),
    )
    sub = PermGroup(list(classes[0].gens), degree=6)
    act5 = coset_action(h6, sub)
    if act5.degree != 5 or not act5.is_doubly_transitive():
        raise AssertionError("degree-5 quotient action is not doubly transitive")
    mats = [heart_matrix(g, p) for g in act5.generators]
    pull = GModule(group, p, 4, mats)
    return Sl2F5Pair(group, v1, v2, pull, act5)
