import itertools
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from heartproof import probe
from heartproof.fields import is_prime
from heartproof.probe import (
    BadReduction,
    NotSquarefree,
    PolyZ,
    classify_galois,
    discriminant,
    factor_degrees_mod_p,
    parse_poly,
)

from bareiss import resultant_bareiss
from crt import discriminant_crt
from cyclotomic import poly_product
from evidence import verify_evidence


def test_parse_forms():
    f = parse_poly("x^5 - x - 1")
    assert f.coeffs == (-1, -1, 0, 0, 0, 1)
    assert parse_poly("[-1, -1, 0, 0, 0, 1]") == f
    assert parse_poly("x^2+1").coeffs == (1, 0, 1)
    assert parse_poly("2*x^3 - 4x + 7").coeffs == (7, -4, 0, 2)
    assert parse_poly("x").coeffs == (0, 1)
    assert parse_poly("-x^2 + 3").coeffs == (3, 0, -1)
    with pytest.raises(ValueError):
        parse_poly("x^2 + + 3")
    with pytest.raises(ValueError):
        parse_poly("y^2 - 1")


def test_squarefree():
    # f has no repeated root over Q exactly when disc(f) != 0
    assert discriminant(parse_poly("x^2")) == 0
    assert discriminant(parse_poly("x^5 - x - 1")) != 0
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    assert discriminant(parse_poly("x^3 - 3*x + 2")) == 0
    with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
        discriminant(parse_poly("7"))


def _squarefree_by_euclid(f: PolyZ) -> bool:
    """gcd(f, f') has degree 0, by Euclid over Q in exact fractions."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in f.derivative().coeffs]
    while any(b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) <= 1


def _product(*polys):
    return PolyZ(tuple(poly_product(polys)))


def test_squarefree_against_euclid_over_q():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    # integer factors of degree 1 to 4; half the draws repeat the first one,
    # so both answers are common
    factor = st.tuples(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
                       st.sampled_from([-3, -2, -1, 1, 2, 3])).map(lambda t: t[0] + [t[1]])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(factor, min_size=1, max_size=3), st.booleans())
    def check(factors, repeat):
        f = _product(*(factors + factors[:1] if repeat else factors))
        assert (discriminant(f) != 0) == _squarefree_by_euclid(f)

    check()


def test_discriminants():
    assert discriminant(parse_poly("x^5 - x - 1")) == 2869
    assert discriminant(parse_poly("x^5 + 20*x + 16")) == 2**16 * 5**6
    assert discriminant(parse_poly("x^2 + 1")) == -4
    assert discriminant(parse_poly("x^3 - 1")) == -27


def test_discriminant_two_routes_agree():
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        deg = rng.randrange(2, 7)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.randrange(1, 10)]
        f = PolyZ(tuple(coeffs))
        try:
            f.derivative()
        except ValueError:
            continue
        assert discriminant(f) == discriminant_crt(f), f
        checked += 1
    # coefficients at the 64-bit input limit, up to degree 20
    for deg in (3, 7, 11, 15, 20):
        lc = rng.choice([-1, 1]) * rng.randrange(1, 2**63)
        f = PolyZ(tuple(rng.randrange(-2**63, 2**63) for _ in range(deg)) + (lc,))
        assert discriminant(f) == discriminant_crt(f), f


def _random_poly(rng: random.Random, degree: int, sparse: bool) -> list[int]:
    draw = (lambda: rng.choice([-1, 0, 0, 0, 1])) if sparse else (lambda: rng.randrange(-9, 10))
    return [draw() for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def test_resultant_matches_the_bareiss_sylvester_determinant():
    # every degree pair 0..12 in both orders, so the swap, the odd x odd sign
    # flips and a constant argument all occur; about a third of the pairs
    # share a linear factor, so their resultant is 0, and in the sparse draws
    # remainders often drop by two or more degrees at once
    rng = random.Random(11)
    zeros = 0
    for da, db, sparse in itertools.product(range(13), range(13), (False, True)):
        shared = da > 0 and db > 0 and rng.randrange(3) == 0
        f, g = _random_poly(rng, da - shared, sparse), _random_poly(rng, db - shared, sparse)
        if shared:
            factor = [rng.randrange(-3, 4), rng.choice([-2, -1, 1, 2])]
            f, g = poly_product([f, factor]), poly_product([g, factor])
        f, g = PolyZ(tuple(f)), PolyZ(tuple(g))
        for a, b in ((f, g), (g, f)):
            assert probe.resultant(a, b) == resultant_bareiss(a, b), (a, b)
        zeros += probe.resultant(f, g) == 0
    assert zeros >= 60


def test_discriminant_refuses_a_resultant_not_divisible_by_lc(monkeypatch):
    monkeypatch.setattr(probe, "resultant", lambda f, g: 7)
    message = r"^-7, the signed Res\(f, f'\), is not a multiple of lc\(f\) = 2$"
    with pytest.raises(ArithmeticError, match=message):
        discriminant(parse_poly("2*x^2 + 1"))


def test_factor_degrees_examples():
    f = parse_poly("x^5 - x - 1")
    assert factor_degrees_mod_p(f, 2, 2869) == [2, 3]
    assert factor_degrees_mod_p(parse_poly("x^2+1"), 3, -4) == [2]
    assert factor_degrees_mod_p(parse_poly("x^2+1"), 5, -4) == [1, 1]
    assert sum(factor_degrees_mod_p(f, 7, discriminant(f))) == 5


def test_bad_reduction():
    f = parse_poly("x^2 - 3")
    with pytest.raises(BadReduction, match="discriminant"):
        factor_degrees_mod_p(f, 3, discriminant(f))  # x^2 mod 3
    f = parse_poly("3*x^2 + x + 1")
    with pytest.raises(BadReduction, match="leading coefficient"):
        factor_degrees_mod_p(f, 3, discriminant(f))  # lc drops


def test_classify_sn():
    ev = classify_galois(parse_poly("x^5 - x - 1"), 40)
    assert ev.conclusion == "proven_sn"
    assert ev.resolved_group == "symmetric"
    assert ev.irreducible_witness is not None
    assert not ev.disc_is_square
    assert verify_evidence(ev)


def test_classify_an():
    ev = classify_galois(parse_poly("x^5 + 20*x + 16"), 40)
    assert ev.conclusion == "proven_an_or_sn"
    assert ev.disc_is_square
    assert ev.resolved_group == "alternating"
    assert verify_evidence(ev)


def test_classify_x4_plus_1():
    ev = classify_galois(parse_poly("x^4 + 1"), 40)
    patterns = [p for p, _ in ev.cycle_types]
    assert (4,) not in patterns  # splits mod every odd prime
    assert ev.conclusion == "unknown"
    assert ev.resolved_group is None


def test_classify_deterministic():
    f = parse_poly("x^6 - 2*x^4 + 3*x - 7")
    a = classify_galois(f, 25)
    b = classify_galois(f, 25)
    assert a == b


def test_classify_rejects_repeated_roots():
    with pytest.raises(NotSquarefree):
        classify_galois(parse_poly("x^2"), 10)


def test_degree_multisets_sum_to_n():
    f = parse_poly("x^6 - 2*x^4 + 3*x - 7")
    disc = probe.discriminant(f)
    for p in probe.sample_primes(f, disc, 15):
        assert sum(factor_degrees_mod_p(f, p, disc)) == 6


def _sieve(limit: int) -> list[int]:
    """Primes below limit, by the sieve of Eratosthenes."""
    marks = [True] * limit
    marks[:2] = [False, False]
    for i in range(2, int(limit**0.5) + 1):
        if marks[i]:
            marks[i * i::i] = [False] * len(marks[i * i::i])
    return [i for i, m in enumerate(marks) if m]


def test_sample_primes_against_a_sieve(monkeypatch):
    # primes dividing the leading coefficient (3 and 5 in the first), the
    # discriminant (5 and 7, then 19 and 151 of 2869, then 3 to 23), or both
    # (3 and 5, then 3 to 11); the shared prime list starts empty and each
    # budget order grows it differently, which no result may show
    cases = ["15*x^2 + x + 1", "x^2 - 35", "x^5 - x - 1", "15*x^3 - 45*x + 15",
             "x^2 - 111546435", "1155*x^2 + 1"]
    sieved = _sieve(10_000)
    for budgets in ((1000, 1, 40), (1, 40, 1000), (40, 1000, 1)):
        monkeypatch.setattr(probe, "_ODD_PRIMES", [])
        for text in cases:
            f = parse_poly(text)
            disc = discriminant(f)
            expected = [p for p in sieved if p >= 3 and f.lc % p and disc % p]
            for budget in budgets:
                assert probe.sample_primes(f, disc, budget) == expected[:budget], (text, budget)
                grown = probe._ODD_PRIMES
                assert grown == [p for p in sieved if 3 <= p <= grown[-1]]


def test_sample_primes_grows_the_shared_list_once_under_threads(monkeypatch):
    monkeypatch.setattr(probe, "_ODD_PRIMES", [])
    polys = [parse_poly(t) for t in ("x^5 - x - 1", "x^2 - 111546435", "1155*x^2 + 1",
                                     "x^6 - 2*x^4 + 3*x - 7")] * 2
    discs = [discriminant(f) for f in polys]
    results = [None] * len(polys)

    def sample(i):
        results[i] = probe.sample_primes(polys[i], discs[i], 300)

    threads = [threading.Thread(target=sample, args=(i,)) for i in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sieved = _sieve(10_000)
    for f, disc, got in zip(polys, discs, results):
        assert got == [p for p in sieved if p >= 3 and f.lc % p and disc % p][:300], f
    grown = probe._ODD_PRIMES
    assert grown == [p for p in sieved if 3 <= p <= grown[-1]]


def test_composite_degree_needs_primitivity_certificate():
    # degree 6 with Galois group S_6: certification goes through the
    # 5-cycle primitivity argument, never the bare pattern rule
    ev = classify_galois(parse_poly("x^6 + x^4 + x - 5"), 40)
    assert ev.conclusion == "proven_sn"
    assert any("primitive" in reason for reason in ev.reasons)
    assert (1, 5) in [pat for pat, _ in ev.cycle_types]
    assert verify_evidence(ev)


# primes of both kinds for the trace route (p <= n, n < p) up to degree 30,
# the last prime with 30^2 * p^3 < 2^52, where a degree-30 batch works at
# its bound, and one where n^2 * p^3 >= 2^52 for every n >= 2
ORACLE_PRIMES = [2, 3, 5, 7, 13, 31, 101, 211, 17099, 2147483659]


def test_batched_patterns_against_the_gcd_route_and_sympy():
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("sympy")
    from hypothesis import assume, given, settings
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    @st.composite
    def poly_and_primes(draw):
        """Squarefree f of degree 2 to 30 and the oracle primes of good
        reduction, at least one each with p <= n and n < p. Half the draws
        take uniform coefficients: shrunk lists are mostly zeros."""
        n = draw(st.integers(2, 30))
        uniform = st.randoms(use_true_random=False).map(
            lambda r: [r.randint(-20, 20) for _ in range(n)])
        low = draw(st.one_of(st.lists(st.integers(-20, 20), min_size=n, max_size=n), uniform))
        f = PolyZ(tuple(low) + (draw(st.sampled_from([-3, -2, -1, 1, 2, 3, 7])),))
        disc = discriminant(f)
        assume(disc != 0)
        primes = [p for p in ORACLE_PRIMES if f.lc % p and disc % p]
        assume(any(p <= n for p in primes) and any(n < p < 2**31 for p in primes))
        return f, disc, primes

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(poly_and_primes())
    def check(case):
        f, disc, primes = case
        batched = probe.factor_degrees_mod_primes(f, primes, disc)
        assert batched == [factor_degrees_mod_p(f, p, disc) for p in primes]
        # the gcd route at 2^31 + 11 is checked against sympy in the gfpoly oracle
        for p, degs in zip(primes, batched):
            if p < 2**31:
                _, factors = gf_factor_sqf([c % p for c in reversed(f.coeffs)], p, ZZ)
                assert degs == sorted(len(g) - 1 for g in factors), p

    check()


def _roots_in_extension(coeffs, field):
    """Number of roots in `field` of the integer polynomial, by Horner."""
    count = 0
    for x in range(field.q):
        value = 0
        for c in reversed(coeffs):
            value = field.add(field.mul(value, x), c % field.ell)
        count += value == 0
    return count


def test_frobenius_traces_count_roots_in_extension_fields():
    from heartproof.fields import ExtField

    # (x - 1)(x - 2)(x^2 - 2)(x^3 - 2): at p = 13, 2 is neither a square nor
    # a cube, so the factors are irreducible of degrees 1, 1, 2, 3, and
    # tr(Q^k) is the sum of the degrees dividing k; p = 17 is a second
    # prime in the same batch
    f = _product([-1, 1], [-2, 1], [-2, 0, 1], [-2, 0, 0, 1])
    traces = probe._frobenius_traces(f, [13, 17], 3).tolist()
    assert traces[0] == [2, 1 + 1 + 2, 1 + 1 + 3]
    for p, row in zip([13, 17], traces):
        assert row == [_roots_in_extension(f.coeffs, ExtField(p, k)) for k in (1, 2, 3)]
    disc = discriminant(f)
    assert probe.factor_degrees_mod_primes(f, [13], disc) == [[1, 1, 2, 3]]


def test_moebius_inversion_returns_the_degree_multiset(monkeypatch):
    # a_k = sum over d | k of d * N_d is tr(Q^k) for a pattern with N_d factors
    # of degree d; reading the traces back must give the pattern, for every
    # half = n // 2 up to MAX_POLY_DEGREE // 2
    rng = random.Random(19)
    for n in range(1, probe.MAX_POLY_DEGREE + 1):
        patterns = [[n], [1] * n]
        while len(patterns) < 12:
            degs, left = [], n
            while left:
                degs.append(rng.randint(1, rng.choice([left, min(left, 4)])))
                left -= degs[-1]
            patterns.append(sorted(degs))
        traces = [[sum(d for d in degs if k % d == 0) for k in range(1, n // 2 + 1)]
                  for degs in patterns]
        monkeypatch.setattr(probe, "_frobenius_traces", lambda f, primes, upto: np.array(traces))
        f = PolyZ((1,) * n + (1,))
        assert probe._trace_patterns(f, [101] * len(patterns), 1) == patterns, n


def test_primes_past_the_float64_bound_take_the_gcd_route(monkeypatch):
    # n^2 * p^3 < 2^52 keeps every batched value an exact float64 integer: at
    # n = 2 the prime 104021 is the last below the bound and 104033 the
    # first past it
    f = parse_poly("x^2 - 3")
    disc = discriminant(f)
    primes = [5, 104021, 104033]
    assert [f.degree**2 * p**3 < 2**52 for p in primes] == [True, True, False]
    assert all(map(is_prime, primes)) and not any(map(is_prime, range(primes[1] + 1, primes[2])))
    gcd_route = []

    def recorded(f, p, disc):
        gcd_route.append(p)
        return factor_degrees_mod_p(f, p, disc)

    monkeypatch.setattr(probe, "factor_degrees_mod_p", recorded)
    batched = probe.factor_degrees_mod_primes(f, primes, disc)
    assert gcd_route == [104033]
    assert batched == [factor_degrees_mod_p(f, p, disc) for p in primes]
    # 3 is a square mod p exactly when p = +-1 mod 12
    assert batched == [[2] if p % 12 in (5, 7) else [1, 1] for p in primes]
    # p <= n takes the gcd route as well
    gcd_route.clear()
    cubic = parse_poly("x^3 - x - 1")
    assert probe.factor_degrees_mod_primes(cubic, [3, 5], discriminant(cubic)) == [[3], [1, 2]]
    assert gcd_route == [3]


def test_batch_is_exact_at_its_largest_product(monkeypatch):
    # a dense degree-50 polynomial at p = 12163, the last prime with
    # 50^2 * p^3 < 2^52: the batch must agree with the gcd route and sympy,
    # and the next prime, 12197, takes the gcd route
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    rng = random.Random(50)
    f = PolyZ(tuple(rng.randint(-10**6, 10**6) for _ in range(50)) + (rng.randint(1, 10**6),))
    disc = discriminant(f)
    primes = [12163, 12197]
    assert [50**2 * p**3 < 2**52 for p in primes] == [True, False]
    assert all(map(is_prime, primes)) and not any(map(is_prime, range(primes[0] + 1, primes[1])))
    assert all(f.lc % p and disc % p for p in primes)
    gcd_route = []

    def recorded(f, p, disc):
        gcd_route.append(p)
        return factor_degrees_mod_p(f, p, disc)

    monkeypatch.setattr(probe, "factor_degrees_mod_p", recorded)
    batched = probe.factor_degrees_mod_primes(f, primes, disc)
    assert gcd_route == [12197]
    for p, degs in zip(primes, batched):
        assert degs == factor_degrees_mod_p(f, p, disc)
        _, factors = gf_factor_sqf([c % p for c in reversed(f.coeffs)], p, ZZ)
        assert degs == sorted(len(g) - 1 for g in factors), p


def test_verify_evidence_rederives_patterns_by_the_gcd_route(monkeypatch):
    f = parse_poly("x^5 - x - 1")
    ev = classify_galois(f, 40)
    assert verify_evidence(ev)
    # a trace batch that reads every prime as totally split misleads the
    # replay of classify_galois, but not the gcd route at the first primes
    monkeypatch.setattr(probe, "_trace_patterns", lambda f, primes, disc: [[1] * 5 for _ in primes])
    assert not verify_evidence(classify_galois(f, 40))


def test_coefficient_limit():
    limit = 2**probe.MAX_COEFF_BITS
    assert parse_poly(f"x^2 - {limit - 1}").coeffs == (1 - limit, 0, 1)
    for text in [f"x^2 + {limit}", f"[{limit}, 0, 1]", f"x^2 + {limit - 1} + 1"]:
        with pytest.raises(ValueError, match=r"^a coefficient of 65 bits is above the limit "
                                             r"MAX_COEFF_BITS = 64$"):
            parse_poly(text)
