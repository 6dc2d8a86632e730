"""Tests certifying the elimination tree and column counts."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.matrices.etree import column_counts, elimination_tree, etree_heights
from repro.matrices.generators import banded, grid2d, random_symmetric
from repro.matrices.symbolic import symbolic_cholesky
from tests.matrices.dense_symbolic import reference_etree_and_counts
from tests.matrices.patterns import EDGE_CASES, symmetric_patterns


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


def check_against_reference(a):
    ref_parent, ref_counts = reference_etree_and_counts(a)
    parent = elimination_tree(a)
    counts = column_counts(a, parent)
    sym = symbolic_cholesky(a)
    for got in (parent, sym.parent):
        assert got.dtype == np.int64 and got.tolist() == ref_parent.tolist()
    for got in (counts, column_counts(a), sym.counts):
        assert got.dtype == np.int64 and got.tolist() == ref_counts.tolist()


class TestFuzzAgainstDenseReference:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        check_against_reference(EDGE_CASES[name])

    @settings(max_examples=200, deadline=None)
    @given(symmetric_patterns(max_nodes=30))
    def test_random_patterns(self, a):
        check_against_reference(a)
