"""The three workloads: seeded inputs, one round at a time, and their checks.

A round is a fixed list of requests whose make-up does not depend on the
seed or on how many rounds came before, so every run measures the same mix
however long it lasts. The seed only draws the inputs inside that mix:
relabellings, primes, MeatAxe seeds and coefficients. Each round sends
its requests in a seeded random order, so requests of like cost are spread
over the run instead of meeting one moment of a machine whose speed drifts
(README.md, Noise).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

PRIMES = (3, 5, 7, 11, 13)


@dataclass
class Request:
    """One call of `heartproof.cli.main(argv)`; `key` names the input up to
    relabelling, so results of one key must agree across rounds."""

    argv: list[str]
    key: tuple
    json_path: Path | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    request: Request
    round: int
    rc: int | None
    start: float
    end: float
    stdout: str
    stderr: str
    cert: str | None
    error: str | None = None


def _cycles(images: list[int]) -> str:
    seen: set[int] = set()
    out = []
    for i in range(len(images)):
        if i in seen or images[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = images[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _images(cycles: str, n: int) -> list[int]:
    images = list(range(n))
    for body in cycles.strip("()").split(")("):
        pts = [int(t) for t in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def _interleave(queues: list[list[Request]], rng: random.Random) -> list[Request]:
    """A uniformly random merge that keeps each queue's own order."""
    slots = [i for i, q in enumerate(queues) for _ in q]
    rng.shuffle(slots)
    heads = [iter(q) for q in queues]
    return [next(heads[i]) for i in slots]


def relabel(generators: list[str], n: int, rng: random.Random) -> list[str]:
    """Conjugate every generator by one random relabelling of the points,
    and shuffle their order."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in generators:
        images = _images(g, n)
        new = [0] * n
        for i in range(n):
            new[sigma[i]] = sigma[images[i]]
        out.append(_cycles(new))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# analyze-groups
# ---------------------------------------------------------------------------

# PSL2(q) on P^1(F_q) is generated by z -> z + 1, z -> l^2 z (l primitive) and
# z -> -1/z; points 0..q-1 are field elements, q is infinity.
GROUP_POOL: dict[str, list[str]] = {
    "A5": ["(0 1 2 3 4)", "(0 1 2)"],
    "S5": ["(0 1 2 3 4)", "(0 1)"],
    "AGL(1,5)": ["(0 1 2 3 4)", "(1 2 4 3)"],
    "AGL(1,7)": ["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)"],
    "PSL2(7)": ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", "(0 7)(1 6)(2 3)(4 5)"],
    "PSL2(8)": ["(0 1)(2 3)(4 5)(6 7)", "(1 4 6 5 2 3 7)", "(0 8)(2 5)(3 6)(4 7)"],
    "PSL2(9)": ["(0 1 2)(3 4 5)(6 7 8)", "(1 6 2 3)(4 7 8 5)", "(0 9)(1 2)(4 7)(5 8)"],
    "PSL2(11)": ["(0 1 2 3 4 5 6 7 8 9 10)", "(1 4 5 9 3)(2 8 10 7 6)",
                 "(0 11)(1 10)(2 5)(3 7)(4 8)(6 9)"],
}
# (p, r) pairs in the order each presentation is analysed; the first one
# touches the presentation first. Pairs the CLI would refuse are skipped.
PAIRS = tuple((p, r) for r in (1, 2) for p in (3, 5, 7, 11, 13, 17, 19, 23))
# Relabellings per round. The first touches of PSL2(8), PSL2(9) and
# PSL2(11) (0.8 to 3 s) set the request rate; the p98 tail falls at the
# middle of the seven of PSL2(7) (about 0.2 s each); the copies of the
# small groups add cached requests around the median. README.md has the
# figures.
RELABELLINGS = {"A5": 3, "S5": 2, "AGL(1,5)": 3, "AGL(1,7)": 3, "PSL2(7)": 7,
                "PSL2(8)": 1, "PSL2(9)": 1, "PSL2(11)": 1}
# Named families whose concrete group is built and whose index question the
# family table answers, so the table path of the index search runs too.
TAG_REQUESTS = (("PSL2(13)", 5, 2), ("M11", 7, 2))


def _valid(n: int, p: int, r: int) -> bool:
    return n % p != 0 or n % p**r == 0


class AnalyzeGroups:
    name = "analyze-groups"
    ok_codes = (0, 2)
    speed_probe = "python"
    tail_percentile = 98
    min_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def warm_up(self) -> list[Request]:
        """The tag requests, once each: heartproof memoises named groups per
        process, so otherwise the first round alone would build their
        stabilizer chains. First touches of each group file stay in the mix.
        """
        return self._tag_requests()

    def _tag_requests(self) -> list[Request]:
        cert = self.workdir / "cert.json"
        return [Request(["analyze", "--group", name, "--p", str(p), "--r", str(r),
                         "--json", str(cert)], (name, p, r), cert, {"group": name})
                for name, p, r in TAG_REQUESTS]

    def round(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        cert = self.workdir / "cert.json"
        queues = []
        for name, gens in GROUP_POOL.items():
            n = oracle.GROUP_FACTS[name].degree
            pairs = [pr for pr in PAIRS if _valid(n, *pr)]
            for copy in range(RELABELLINGS[name]):
                path = self.workdir / f"r{index}-{name}-{copy}.txt"
                path.write_text(f"# {name}, relabelled\n"
                                + "\n".join(relabel(gens, n, rng)) + "\n")
                queues.append([Request(["analyze", "--group-file", str(path), "--assume-zeta",
                                        "--p", str(p), "--r", str(r), "--json", str(cert)],
                                       (name, p, r), cert, {"group": name}) for p, r in pairs])
        queues += [[request] for request in self._tag_requests()]
        return _interleave(queues, rng)

    def check(self, results: list[Result]) -> list[str]:
        problems = []
        verdicts: dict[tuple, tuple] = {}
        for res in results:
            if res.cert is None:
                problems.append(f"{res.request.key}: no certificate written")
                continue
            cert = json.loads(res.cert)
            facts = oracle.GROUP_FACTS[res.request.meta["group"]]
            found = oracle.check_group_certificate(cert, facts)
            if (res.rc == 0) != (cert["conclusion"]["kind"] != "inconclusive"):
                found.append(f"exit code {res.rc} for {cert['conclusion']['kind']}")
            verdict = (cert["theorem"], cert["conclusion"]["kind"],
                       tuple((c["anchor"], c["kind"], c["pass"]) for c in cert["checks"]))
            if verdicts.setdefault(res.request.key, verdict) != verdict:
                found.append("verdict changed under relabelling")
            problems += [f"{res.request.key}: {msg}" for msg in found]
        return problems


# ---------------------------------------------------------------------------
# heart-family
# ---------------------------------------------------------------------------

# (family, degree, heart kind). 'quotient' instances take p | n, so the
# n - 2 law is exercised; the others take p not dividing n. The mix is
# shaped so that the median and the tail percentile each fall inside a band
# of requests of like cost, away from the gaps between bands (README.md):
# 12 below 0.04 s, 8 around d = 12 (the median), 4 around 0.3 s, 3 around
# 0.6 s and the 5 heaviest, d >= 21, whose fourth (M23) holds the p89 tail.
HEART_POOL = (
    ("S", 10, "hyperplane"), ("S", 10, "quotient"), ("S", 11, "quotient"),
    ("S", 12, "quotient"), ("A", 10, "hyperplane"), ("A", 10, "quotient"),
    ("A", 11, "hyperplane"), ("A", 11, "quotient"), ("A", 12, "quotient"),
    ("M", 11, "hyperplane"), ("M", 11, "quotient"), ("M", 12, "quotient"),
    ("S", 13, "hyperplane"), ("S", 14, "hyperplane"), ("A", 13, "hyperplane"),
    ("A", 14, "quotient"), ("A", 15, "quotient"), ("M", 12, "hyperplane"),
    ("PSL2", 14, "hyperplane"), ("PSL2", 14, "quotient"),
    ("S", 16, "hyperplane"), ("S", 18, "quotient"), ("A", 17, "hyperplane"),
    ("PSL2", 18, "quotient"),
    ("A", 20, "hyperplane"), ("PSL2", 17, "hyperplane"), ("PSL2", 20, "hyperplane"),
    ("S", 22, "hyperplane"), ("M", 22, "hyperplane"), ("M", 23, "hyperplane"),
    ("M", 24, "quotient"), ("PSL2", 24, "hyperplane"),
)


def _heart_primes(family: str, n: int, kind: str) -> list[int]:
    out = []
    for p in PRIMES:
        if (n % p == 0) != (kind == "quotient"):
            continue
        try:
            oracle.family_heart_facts(family, n, p)
        except ValueError:
            continue
        out.append(p)
    return out


def _heart_argv(family: str, n: int, p: int, meataxe_seed: int) -> list[str]:
    if family in ("S", "A"):
        group = [family, "--n", str(n)]
    elif family == "M":
        group = [f"M{n}"]
    else:
        group = [f"PSL2({n - 1})"]
    return ["heart", "--group", *group, "--p", str(p), "--seed", str(meataxe_seed)]


class HeartFamily:
    name = "heart-family"
    ok_codes = (0,)
    speed_probe = "numpy"
    tail_percentile = 89
    min_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warm_up(self) -> list[Request]:
        """Build each named group once and return the M24 request, the one
        with the largest Kronecker system, to be sent once untimed.

        heartproof memoises named groups per process, and the allocator keeps
        memory once the largest arrays have been freed, so without this the
        first round alone would pay for stabilizer chains (0.9 s for S22) and
        for fresh pages (0.3 s at d = 20), and the rounds would differ.
        Chains are timed on analyze-groups.
        """
        from heartproof import groups

        for family, n, _ in HEART_POOL:
            if family == "S":
                groups.symmetric_group(n)
            elif family == "A":
                groups.alternating_group(n)
            elif family == "M":
                groups.mathieu_group(n)
            else:
                groups.psl2_group(*oracle.prime_power(n - 1))
        return [r for r in self.round(0) if r.key[:2] == ("M", 24)]

    def round(self, index: int) -> list[Request]:
        """Every pool entry once, with p and the MeatAxe seed drawn afresh in
        every round, so that a run averages over three draws of each."""
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        requests = []
        for family, n, kind in HEART_POOL:
            p = rng.choice(_heart_primes(family, n, kind))
            argv = _heart_argv(family, n, p, rng.randrange(1000))
            requests.append(Request(argv, (family, n, p), None,
                                    {"facts": oracle.family_heart_facts(family, n, p)}))
        rng.shuffle(requests)
        return requests

    def check(self, results: list[Result]) -> list[str]:
        problems = []
        first: dict[tuple, str] = {}
        for res in results:
            found = oracle.check_heart_output(res.stdout, res.request.meta["facts"])
            if first.setdefault(res.request.key, res.stdout) != res.stdout:
                found.append("output differs from an earlier round")
            problems += [f"{res.request.key}: {msg}" for msg in found]
        return problems


# ---------------------------------------------------------------------------
# analyze-poly
# ---------------------------------------------------------------------------

POLY_DEGREES = range(5, 14)
RANDOM_PER_DEGREE = 5
BINOMIALS_PER_DEGREE = 1


def poly_text(coeffs: list[int]) -> str:
    """'x^5 - 3*x^2 + 1' from ascending coefficients."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        power = "x" if i == 1 else f"x^{i}"
        body = str(mag) if i == 0 else ("" if mag == 1 else f"{mag}*") + power
        terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _squarefree_mod_some_prime(coeffs: list[int]) -> bool:
    """f squarefree mod a prime not dividing lc(f) implies f squarefree over Q."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if coeffs[-1] % p == 0:
            continue
        f = [c % p for c in coeffs]
        df = [i * c % p for i, c in enumerate(f)][1:]
        if _gcd_degree_mod_p(f, df, p) == 0:
            return True
    return False


def _gcd_degree_mod_p(a: list[int], b: list[int], p: int) -> int:
    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


class AnalyzePoly:
    name = "analyze-poly"
    ok_codes = (0, 2)
    speed_probe = "python"
    tail_percentile = 95
    min_rounds = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cert = workdir / "cert.json"

    def warm_up(self) -> list[Request]:
        """Nothing: the probe keeps no state between requests."""
        return []

    def round(self, index: int) -> list[Request]:
        """Fresh polynomials in every round, the same number of each degree
        and kind, so a run averages over many more inputs than one round."""
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        requests = []
        for n in POLY_DEGREES:
            polys = []
            while len(polys) < RANDOM_PER_DEGREE:
                lead = rng.choice([c for c in range(-9, 10) if c])
                coeffs = [rng.randint(-9, 9) for _ in range(n)] + [lead]
                if _squarefree_mod_some_prime(coeffs):
                    polys.append(coeffs)
            for _ in range(BINOMIALS_PER_DEGREE):
                polys.append([rng.choice([c for c in range(-9, 10) if c])] + [0] * (n - 1) + [1])
            for coeffs in polys:
                p = rng.choice([q for q in PRIMES if n % q])
                argv = ["analyze", "--poly", poly_text(coeffs), "--p", str(p),
                        "--json", str(self.cert)]
                requests.append(Request(argv, (tuple(coeffs), p), self.cert,
                                        {"coeffs": tuple(coeffs)}))
        rng.shuffle(requests)
        return requests

    def check(self, results: list[Result]) -> list[str]:
        problems = []
        first: dict[tuple, str] = {}
        for res in results:
            key = res.request.key
            if res.cert is None:
                problems.append(f"{poly_text(list(key[0]))}: no certificate written")
                continue
            if key in first:
                same = first[key] == res.cert
                found = [] if same else ["certificate differs from an earlier round"]
            else:
                first[key] = res.cert
                found = oracle.check_poly_certificate(json.loads(res.cert),
                                                      res.request.meta["coeffs"])
            if (res.rc == 0) != (json.loads(res.cert)["conclusion"]["kind"] != "inconclusive"):
                found.append(f"exit code {res.rc}")
            problems += [f"{poly_text(list(key[0]))}: {msg}" for msg in found]
        return problems


WORKLOADS = {w.name: w for w in (AnalyzeGroups, HeartFamily, AnalyzePoly)}
