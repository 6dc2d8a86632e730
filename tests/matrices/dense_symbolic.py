"""Dense reference for the symbolic Cholesky analysis (explicit fill
propagation), used to certify the sparse algorithms on small matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def dense_symbolic_cholesky(a: sp.spmatrix) -> np.ndarray:
    """Reference: dense boolean fill propagation, O(n^3).

    Returns the dense boolean lower-triangular pattern of ``L``
    (including the diagonal).
    """
    dense = np.asarray(sp.csr_matrix(a).todense() != 0)
    n = dense.shape[0]
    pattern = np.tril(dense).copy()
    np.fill_diagonal(pattern, True)
    for k in range(n):
        below = np.flatnonzero(pattern[:, k])
        below = below[below > k]
        # Eliminating column k fills in the clique among `below`.
        for idx, i in enumerate(below):
            pattern[below[idx + 1 :], i] = True
    return pattern
