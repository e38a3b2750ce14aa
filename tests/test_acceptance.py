"""Acceptance suite: one test per criterion, each printing a pass line and
holding its stated runtime budget."""

import json
import random
import time
from math import gcd
from pathlib import Path

import numpy as np

from heartproof import linalg, modules, probe, simplicity, verdict, weights
from heartproof.cli import run_fixture_line
from heartproof.groups import (
    GroupTag,
    alternating_group,
    mathieu_group,
    psl2_group,
    symmetric_group,
)
from heartproof.simplicity import Level

from cyclotomic import cyclotomic_poly_prime_power, poly_product
from evidence import verify_evidence
from intertwiners import is_invertible, module_iso, tensor
from kronecker import kronecker_commutant_dim

FIXTURES = Path("src/heartproof/data/fixtures.jsonl")
GOLDEN = Path(__file__).parent / "golden"

ODD_PRIMES_37 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
PRIMES_100 = [p for p in range(7, 101) if all(p % d for d in range(2, p))]


def _report(num, desc, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"[criterion {num:2d}] PASS {desc} ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_heart_dimension_law():
    t0 = time.monotonic()
    for n in range(5, 13):
        for p in (3, 5, 7, 11, 13):
            for g in (symmetric_group(n), alternating_group(n)):
                h = modules.heart(g, p)
                want = n - 2 if n % p == 0 else n - 1
                assert h.dim == want, (n, p)
    _report(1, "heart dimension law on 5<=n<=12, p in {3,5,7,11,13}", t0, 1)


def test_criterion_2_absolute_irreducibility():
    t0 = time.monotonic()
    count = 0
    for ctor in (symmetric_group, alternating_group):
        for n in (5, 6, 7):
            for p in (3, 5, 7, 11, 13):
                h = modules.heart(ctor(n), p)
                r = modules.is_irreducible(h)
                assert r.irreducible, (ctor, n, p)
                assert modules.commutant_dim(h, r) == kronecker_commutant_dim(h) == 1, (ctor, n, p)
                count += 1
    h = modules.heart(mathieu_group(11), 5)
    assert h.dim == 10
    r = modules.is_irreducible(h)
    assert r.irreducible
    assert modules.commutant_dim(h, r) == kronecker_commutant_dim(h) == 1
    _report(2, f"absolute irreducibility on {count} S/A hearts + M11 over F_5", t0, 30)


def test_criterion_3_a5_tensor_decomposition():
    t0 = time.monotonic()
    eye2 = linalg.identity(2)
    for p in (11, 19, 29, 31):
        pair = modules.sl2f5_two_dim_reps(p)
        v1, v2, pull = pair.v1, pair.v2, pair.pullback_heart
        for v in (v1, v2):
            r = modules.is_irreducible(v)
            assert r.irreducible and modules.commutant_dim(v, r) == 1
        assert module_iso(v1, v2) is None
        t = tensor(v1, v2)
        x = module_iso(t, pull)
        assert x is not None and is_invertible(x, p)
        for a, b in zip(t.gen_matrices, pull.gen_matrices):
            assert np.array_equal((a @ x) % p, (x @ b) % p)
        # conjugation stability of End(V1)(x)1 and 1(x)End(V2)
        for side in ("left", "right"):
            basis = []
            for i in range(2):
                for j in range(2):
                    e = linalg.zeros(2, 2)
                    e[i, j] = 1
                    basis.append(np.kron(e, eye2) if side == "left" else np.kron(eye2, e))
            span = np.array([b.reshape(-1) for b in basis]) % p
            span_rank = linalg.rank(span, p)
            assert span_rank == 4
            for g in t.gen_matrices:
                gi = linalg.mat_inv(g, p)
                for b in basis:
                    conj = (g @ b @ gi) % p
                    stacked, piv = linalg.rref(np.vstack([span, conj.reshape(-1)]), p)
                    assert len(piv) == span_rank, (p, side)
    _report(3, "A5 tensor decomposition at p in {11,19,29,31}", t0, 60)


def test_criterion_4_a5_dichotomy():
    t0 = time.monotonic()
    for p in PRIMES_100:
        very = simplicity.very_simple_alt(5, p).level == Level.VERY_SIMPLE
        assert very == (p % 5 in (2, 3)), p
        divisible = (p * (p * p - 1) // 2) % 60 == 0
        assert very == (not divisible), p
    _report(4, f"A5 dichotomy on {len(PRIMES_100)} primes", t0, 1)


def test_criterion_5_weight_laws():
    t0 = time.monotonic()
    cases = 0
    for n in range(5, 61):
        for p in ODD_PRIMES_37:
            if n % p == 0:
                continue
            for r in (1, 2):
                params = weights.CurveParams(n, p, r)
                w = weights.weight_profile(params)
                phi = (p - 1) * p ** (r - 1)
                # multiplicities sum to the graded dimension phi(q)(n-1)/2,
                # which equals the curve genus exactly when r = 1
                dimension = sum(m for _, m in w.mults)
                assert dimension == phi * (n - 1) // 2, (n, p, r)
                if r == 1:
                    assert dimension == weights.genus(params), (n, p)
                    assert 2 * w.support >= p + 1, (n, p)
                    if (n - 1) % p == 0:
                        assert w.gcd == (n - 1) // p, (n, p)
                    if n == p + 1 or (n - 1) % p != 0:
                        assert w.gcd == 1, (n, p)
                assert 2 * w.support > phi, (n, p, r)
                cases += 1
    _report(5, f"weight laws on {cases} grid cases (exact)", t0, 5)


def test_criterion_6_cyclotomic_factorization():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        for r in (1, 2, 3):
            factors = [cyclotomic_poly_prime_power(p, i) for i in range(1, r + 1)]
            q = p**r
            assert poly_product(factors) == [1] * q, (p, r)
            assert sum(len(f) - 1 for f in factors) == q - 1
    _report(6, "cyclotomic factorization p<=13, r<=3 (exact)", t0, 5)


def test_criterion_7_group_constructions():
    t0 = time.monotonic()
    for ell, r in [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]:
        q = ell**r
        g = psl2_group(ell, r)
        assert g.order == q * (q * q - 1) // gcd(2, q - 1), q
        assert g.is_doubly_transitive(), q
        assert g.order_with_base("decreasing") == g.order, q
    expected = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}
    for n, order in expected.items():
        g = mathieu_group(n)
        assert g.order == order, n
        assert g.is_doubly_transitive(), n
        assert g.order_with_base("decreasing") == order, n
    _report(7, "PSL(2,q) and Mathieu constructions, double-checked chains", t0, 60)


def test_criterion_8_verdict_regression():
    t0 = time.monotonic()
    entries = [json.loads(line) for line in FIXTURES.read_text().splitlines()
               if line.strip() and not line.startswith("#")]
    assert len(entries) == 14
    for entry in entries:
        name, ok, message = run_fixture_line(json.dumps(entry))
        assert ok, (name, message)
        if not entry["expect"].get("error"):
            cert = verdict.dispatch(verdict.scenario_from_dict(entry["scenario"]))
            golden = (GOLDEN / f"cert_{name}.json").read_text()
            assert verdict.certificate_to_json(cert) == golden, name
    _report(8, "14-scenario fixture vs golden certificates (byte-exact)", t0, 120)


def test_criterion_9_galois_probe():
    t0 = time.monotonic()
    ev = probe.classify_galois(probe.parse_poly("x^5 - x - 1"), 40)
    assert ev.conclusion == "proven_sn"
    assert verify_evidence(ev)
    ev2 = probe.classify_galois(probe.parse_poly("x^5 + 20*x + 16"), 40)
    assert ev2.conclusion == "proven_an_or_sn" and ev2.disc_is_square
    assert ev2.resolved_group == "alternating"
    assert verify_evidence(ev2)
    # determinism under a fixed budget
    assert probe.classify_galois(probe.parse_poly("x^5 - x - 1"), 40) == ev
    assert probe.classify_galois(probe.parse_poly("x^5 + 20*x + 16"), 40) == ev2
    _report(9, "galois probe certifies S5 and A5 and re-verifies", t0, 10)


CUSTOM_POOL = [
    (5, ("(0 1 2)", "(0 1 2 3 4)")),          # A5
    (5, ("(0 1 2 3 4)", "(1 2 4 3)")),        # F20
    (5, ("(0 1 2 3 4)",)),                    # C5
    (5, ("(0 1 2 3 4)", "(1 4)(2 3)")),       # D5
    (6, ("(0 1 2)", "(1 2 3 4 5)")),          # A6
    (6, ("(0 1)", "(0 1 2 3 4 5)")),          # S6
]

PSL2_POOL = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1), (19, 1)]
PSU3_POOL = [2, 3, 4, 5, 7, 8, 9, 11, 13]
ROUTE_NAMES = {
    "symmetric_alternating_ring", "mathieu_ring", "psl2_projective_line_ring",
    "psu3_unital_ring", "coprime_order_ring", "index_criterion_ring",
    "symmetric_alternating_algebra", "coprime_order_algebra", "index_criterion_algebra",
}


def _random_scenario(rng: random.Random) -> verdict.Scenario:
    p = rng.choice(ODD_PRIMES_37)
    r = rng.choice([1, 1, 1, 2, 3])
    zeta = rng.random() < 0.5
    kind = rng.choice(["symmetric", "alternating", "mathieu", "psl2", "psu3", "custom"])
    if kind in ("symmetric", "alternating"):
        n = rng.randrange(5, 13)
        tag = GroupTag.symmetric(n) if kind == "symmetric" else GroupTag.alternating(n)
        return verdict.Scenario(n, p, r, "tag", tag=tag, assume_zeta=zeta)
    if kind == "mathieu":
        tag = GroupTag.mathieu(rng.choice([11, 12, 22, 23, 24]))
        return verdict.Scenario(tag.n, p, r, "tag", tag=tag, assume_zeta=zeta)
    if kind == "psl2":
        ell, rr = rng.choice(PSL2_POOL)
        tag = GroupTag.psl2(ell, rr)
        return verdict.Scenario(tag.n, p, r, "tag", tag=tag, assume_zeta=zeta)
    if kind == "psu3":
        q = rng.choice(PSU3_POOL)
        ell = min(d for d in range(2, q + 1) if q % d == 0)
        rr = 0
        v = q
        while v > 1:
            v //= ell
            rr += 1
        tag = GroupTag.psu3(ell, rr)
        return verdict.Scenario(tag.n, p, r, "tag", tag=tag, assume_zeta=zeta)
    n, gens = rng.choice(CUSTOM_POOL)
    return verdict.Scenario(n, p, r, "custom", generators=gens, assume_zeta=zeta)


def test_criterion_10_soundness_gate():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    conclusive = inconclusive = invalid = 0
    for _ in range(1000):
        s = _random_scenario(rng)
        try:
            cert = verdict.dispatch(s)
        except verdict.InvalidScenario:
            invalid += 1
            continue
        assert cert.theorem in ROUTE_NAMES
        if cert.conclusion.kind == "inconclusive":
            inconclusive += 1
            continue
        conclusive += 1
        assert all(c.passed is True for c in cert.checks), verdict.explain(cert)
        assert cert.conclusion.dimension_over_q == s.q - 1
        if s.r == 1:
            assert cert.conclusion.kind == "cyclotomic_ring"
        else:
            assert cert.conclusion.kind == "cyclotomic_product_algebra"
            assert len(cert.conclusion.fields) == s.r
    print(f"  fuzz mix: {conclusive} conclusive, {inconclusive} inconclusive, "
          f"{invalid} invalid")
    assert conclusive > 100 and inconclusive > 100
    _report(10, "1000 fuzzed scenarios never breach the soundness gate", t0, 120)
