"""Permutations of {0..n-1} as tuples, with cycle-notation text format.

Composition is left-to-right: (p * q) sends i to q[p[i]], written mult(p, q).
The text format is 0-indexed cycle notation such as "(0 1 2)(3 4)"; the
identity is "()". Elements within a cycle may be separated by spaces or
commas.

Every composition in `groups` goes through `mult`, which the stabilizer
chains and the subgroup search call millions of times. It composes with
`operator.itemgetter(*p)(q)`, one C call that indexes q at every entry of p,
about three times faster than a generator expression at degrees 8 to 252.
Below degree 2 `itemgetter` would return a bare int (degree 1) or raise
(degree 0), so those degrees take the plain path.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    return all(i == j for i, j in enumerate(p))


def mult(p: Perm, q: Perm) -> Perm:
    """Compose left-to-right: i -> q[p[i]]."""
    if len(p) < 2:
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(p: Perm, g: Perm) -> Perm:
    """g^-1 p g in left-to-right convention: the relabeling of p by g."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[g[i]] = g[j]
    return tuple(out)


def order(p: Perm) -> int:
    return lcm(*(len(c) for c in cycles(p)))


def cycles(p: Perm) -> list[list[int]]:
    """Nontrivial cycles, each starting at its smallest point, sorted."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        out.append(cyc)
    return out


def format_perm(p: Perm) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# the largest degree parse_perm and the family constructors accept: a
# permutation holds one entry per point, and the heart of a degree-n action
# is an (n - 1)^2 int64 matrix, 8 MB at this limit
MAX_DEGREE = 1000


def check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} is above the limit MAX_DEGREE = {MAX_DEGREE}")


def parse_perm(text: str, n: int = 0) -> Perm:
    """Parse cycle notation; n forces a minimum degree. Refuses a degree
    above MAX_DEGREE before allocating anything."""
    stripped = text.strip()
    if not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)+", stripped):
        raise ValueError(f"malformed permutation {text!r}")
    cycle_lists = []
    for m in _CYCLE_RE.finditer(stripped):
        body = m.group(1).strip()
        if not body:
            continue
        points = [int(t) for t in re.split(r"[,\s]+", body)]
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle {m.group(0)!r}")
        cycle_lists.append(points)
    degree = max([n] + [max(c) + 1 for c in cycle_lists])
    check_degree(degree)
    images = list(range(degree))
    for c in cycle_lists:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    seen_moved = set()
    for c in cycle_lists:
        if seen_moved & set(c):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        seen_moved |= set(c)
    return tuple(images)


def extend(p: Perm, n: int) -> Perm:
    """Pad with fixed points up to degree n."""
    if len(p) >= n:
        return p
    return p + tuple(range(len(p), n))
