"""Reference resultant: the Sylvester determinant by fraction-free Bareiss
elimination, (n + m)^3 / 3 exact integer steps, for cross-checking the
probe's subresultant route in tests."""


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix; 1 for the empty one."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    """The Sylvester matrix of f and g, given by ascending coefficients, in
    descending powers: deg g shifted rows of f above deg f rows of g."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    fc = list(reversed(f))
    gc = list(reversed(g))
    return ([[0] * i + fc + [0] * (size - n - 1 - i) for i in range(m)]
            + [[0] * i + gc + [0] * (size - m - 1 - i) for i in range(n)])


def resultant_bareiss(f, g) -> int:
    """Res(f, g) of PolyZ f and g, as the determinant of their Sylvester matrix."""
    return _bareiss_det(_sylvester(list(f.coeffs), list(g.coeffs)))
