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


def reference_etree_and_counts(a):
    """Derive etree and counts from the dense factor pattern."""
    L = dense_symbolic_cholesky(a)
    n = L.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for j in range(n):
        below = np.flatnonzero(L[:, j])
        below = below[below >= j]
        counts[j] = below.shape[0]
        strict = below[below > j]
        if strict.shape[0]:
            parent[j] = strict[0]
    return parent, counts
