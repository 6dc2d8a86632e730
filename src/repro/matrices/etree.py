"""Elimination tree and factor column counts (symbolic analysis).

The elimination tree of a symmetric matrix ``A`` (with Cholesky factor
``L``) is defined by ``parent(j) = min{ i > j : L(i,j) != 0 }``. We
compute it with Liu's ancestor path-compression algorithm in nearly
O(nnz * alpha) time, and the per-column factor counts
``mu_j = |L(:, j)|`` (diagonal included) with the row-subtree traversal
algorithm. Both are the quantities Matlab's ``symbfact`` returns, which
the paper uses to weight assembly-tree nodes.

References: J. W. H. Liu, "The role of elimination trees in sparse
factorization", SIAM J. Matrix Anal. Appl., 1990.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["elimination_tree", "column_counts", "etree_heights"]


def _lower_rows(a: sp.spmatrix) -> list[list[int]]:
    """Below-diagonal column indices of each row, as Python lists."""
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    indptr = a.indptr.tolist()
    indices = a.indices.tolist()
    return [
        [k for k in indices[indptr[i] : indptr[i + 1]] if k < i] for i in range(a.shape[0])
    ]


def _etree_list(lower: list[list[int]]) -> list[int]:
    """Liu's ancestor path compression over the rows of :func:`_lower_rows`."""
    n = len(lower)
    parent = [-1] * n
    ancestor = [-1] * n
    for i, row in enumerate(lower):
        for j in row:
            # Climb with path compression until reaching i's component.
            nxt = ancestor[j]
            while nxt != -1 and nxt != i:
                ancestor[j] = i
                j = nxt
                nxt = ancestor[j]
            if nxt == -1:
                ancestor[j] = i
                parent[j] = i
    return parent


def elimination_tree(a: sp.spmatrix) -> np.ndarray:
    """Elimination tree parent vector of a symmetric-pattern matrix.

    ``parent[j]`` is the etree parent of column ``j`` or ``-1`` for
    roots (the etree is a forest when the matrix is reducible).
    Only the lower triangle of ``a`` is read.
    """
    return np.array(_etree_list(_lower_rows(a)), dtype=np.int64)


def _counts_list(lower: list[list[int]], parent: list[int]) -> list[int]:
    """Row-subtree column counts over the rows of :func:`_lower_rows`."""
    n = len(lower)
    counts = [1] * n  # diagonal entries
    mark = [-1] * n
    for i, row in enumerate(lower):
        mark[i] = i
        for j in row:
            while j != -1 and mark[j] != i:
                counts[j] += 1
                mark[j] = i
                j = parent[j]
    return counts


def column_counts(a: sp.spmatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """Factor column counts ``mu_j = |L(:, j)|`` (diagonal included).

    Uses the row-subtree characterisation: ``L(i, j) != 0`` iff ``j`` is
    on the etree path from some ``k`` with ``A(i, k) != 0, k <= j`` up to
    ``i``. For each row we walk those paths, marking visited nodes so
    every column is counted once per row. Worst case O(nnz * height) --
    the simple ``symbfact`` algorithm, fast enough at our scale and
    verified against dense symbolic elimination in tests.
    """
    lower = _lower_rows(a)
    par = _etree_list(lower) if parent is None else np.asarray(parent).tolist()
    return np.array(_counts_list(lower, par), dtype=np.int64)


def etree_heights(parent: np.ndarray) -> np.ndarray:
    """Height of each node in the elimination forest (leaves have 0).

    Computed in one pass over a topological order (children have smaller
    indices than parents in an etree, by definition).
    """
    par = np.asarray(parent).tolist()
    height = [0] * len(par)
    for j, p in enumerate(par):
        if p != -1:
            height[p] = max(height[p], height[j] + 1)
    return np.array(height, dtype=np.int64)
