"""Tests certifying the elimination tree and column counts."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.etree import column_counts, elimination_tree, etree_heights
from repro.matrices.generators import banded, grid2d, random_symmetric
from tests.matrices.dense_symbolic import dense_symbolic_cholesky


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


class TestKnownMatrices:
    def test_diagonal_matrix_forest(self):
        a = sp.identity(5, format="csr")
        parent = elimination_tree(a)
        assert np.all(parent == -1)
        assert np.all(column_counts(a, parent) == 1)

    def test_tridiagonal_is_chain(self):
        a = banded(6, 1)
        parent = elimination_tree(a)
        assert list(parent) == [1, 2, 3, 4, 5, -1]
        # no fill on a tridiagonal: counts = 2 except last
        assert list(column_counts(a, parent)) == [2, 2, 2, 2, 2, 1]

    def test_arrow_matrix(self):
        """Arrow pointing down-right: every column hits the last row."""
        n = 5
        a = sp.lil_matrix((n, n))
        a[np.arange(n), np.arange(n)] = 1
        a[n - 1, :] = 1
        a[:, n - 1] = 1
        parent = elimination_tree(sp.csr_matrix(a))
        assert all(parent[j] == n - 1 for j in range(n - 1))
        assert parent[n - 1] == -1

    def test_heights(self):
        a = banded(6, 1)
        h = etree_heights(elimination_tree(a))
        assert h[5] == 5 and h[0] == 0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            elimination_tree(sp.csr_matrix(np.ones((3, 4))))


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 32))
        a = random_symmetric(n, 3.0, rng)
        ref_parent, ref_counts = reference_etree_and_counts(a)
        parent = elimination_tree(a)
        counts = column_counts(a, parent)
        assert np.array_equal(parent, ref_parent)
        assert np.array_equal(counts, ref_counts)

    def test_grid(self):
        a = grid2d(4)
        ref_parent, ref_counts = reference_etree_and_counts(a)
        assert np.array_equal(elimination_tree(a), ref_parent)
        assert np.array_equal(column_counts(a), ref_counts)

    def test_counts_lower_bound_is_matrix_column(self):
        """Factor columns contain at least the matrix columns."""
        a = grid2d(5)
        counts = column_counts(a)
        lower = sp.tril(a, format="csc")
        matrix_counts = np.diff(lower.indptr)
        assert np.all(counts >= matrix_counts)
