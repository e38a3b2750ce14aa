"""Independent routes to orbits, (2-)transitivity and element lists, for
cross-checking the stabilizer chain in tests: breadth-first closures under
the generators, which read no chain.
"""

from heartproof import perm


def _closure(start, step) -> set:
    """Everything reached from start by repeated step(x), which yields the
    images of x under the generators."""
    seen, queue = {start}, [start]
    for x in queue:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def orbit(gens, point: int) -> set[int]:
    return _closure(point, lambda x: (g[x] for g in gens))


def is_transitive(gens, n: int) -> bool:
    return n >= 1 and len(orbit(gens, 0)) == n


def is_doubly_transitive(gens, n: int) -> bool:
    """One orbit on the n(n - 1) ordered pairs of distinct points."""
    if n < 2:
        return False
    pairs = _closure((0, 1), lambda ab: ((g[ab[0]], g[ab[1]]) for g in gens))
    return len(pairs) == n * (n - 1)


def elements(gens, n: int) -> set:
    """Every element of <gens>: the identity and its images under right
    multiplication by the generators."""
    return _closure(perm.identity(n), lambda x: (perm.mult(x, g) for g in gens))
