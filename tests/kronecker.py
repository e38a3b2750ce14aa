"""Independent route to commutant dimensions, for cross-checking in tests.

Row-reduces the stacked Kronecker system kron(I, M^T) - kron(M, I), one
block per generator: O(d^6) time and d^4 memory, so only for small modules.
"""

import numpy as np

from heartproof import linalg


def kronecker_commutant_dim(module) -> int:
    """Dimension of {X : X M(g) = M(g) X for all generators g} over F_p."""
    p, d = module.p, module.dim
    if not module.gen_matrices:
        return d * d
    eye = linalg.identity(d)
    blocks = [np.kron(eye, m.T) - np.kron(m, eye) for m in module.gen_matrices]
    return d * d - linalg.rank(np.vstack(blocks) % p, p)
