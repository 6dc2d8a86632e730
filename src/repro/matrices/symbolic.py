"""Symbolic Cholesky analysis: the ``symbfact`` equivalent.

Combines the elimination tree and column counts into one result object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .etree import _counts_list, _etree_list, _lower_rows, etree_heights

__all__ = ["SymbolicFactorization", "symbolic_cholesky"]


@dataclass(frozen=True)
class SymbolicFactorization:
    """Result of the symbolic analysis of a symmetric-pattern matrix.

    Attributes
    ----------
    parent:
        elimination-tree parent vector (``-1`` for roots).
    counts:
        factor column counts ``mu_j = |L(:, j)|`` (diagonal included).
    """

    parent: np.ndarray
    counts: np.ndarray

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return int(self.parent.shape[0])

    @property
    def factor_nnz(self) -> int:
        """Total number of nonzeros of the Cholesky factor ``L``."""
        return int(self.counts.sum())

    def height(self) -> int:
        """Height of the elimination forest."""
        return int(etree_heights(self.parent).max())


def symbolic_cholesky(a: sp.spmatrix) -> SymbolicFactorization:
    """Symbolic Cholesky factorization of a symmetric-pattern matrix.

    Equivalent to Matlab's ``symbfact`` outputs used by the paper:
    elimination tree plus per-column factor counts.
    """
    lower = _lower_rows(a)
    parent = _etree_list(lower)
    counts = _counts_list(lower, parent)
    return SymbolicFactorization(
        parent=np.array(parent, dtype=np.int64), counts=np.array(counts, dtype=np.int64)
    )
