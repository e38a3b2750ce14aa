"""Independent spin-up on numpy rows, for cross-checking `modules.spin`.

One numpy product per candidate image and one numpy reduction per echelon
row, with every entry reduced mod p at each step; exact while d * p^2 < 2^63.
"""

import numpy as np


def numpy_spin(v: np.ndarray, mats: list[np.ndarray], p: int):
    """The rows and recipe `modules.spin` returns, computed row by row: rows[0]
    = v mod p and rows[i] = rows[src] @ mats[g] for recipe[i - 1] = (src, g)."""
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
