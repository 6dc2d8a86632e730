"""Tests for the numeric multifrontal Cholesky executor."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.etree import elimination_tree
from repro.matrices.generators import banded, grid2d, random_symmetric
from tests.matrices.dense_symbolic import dense_symbolic_cholesky
from tests.matrices.multifrontal import (
    column_structures,
    multifrontal_cholesky,
)


def make_spd(pattern: sp.csr_matrix, rng=None) -> sp.csr_matrix:
    """Turn a symmetric pattern into an SPD matrix (diagonal dominance)."""
    rng = rng or np.random.default_rng(0)
    a = sp.csr_matrix(pattern, copy=True).astype(np.float64)
    a.data = rng.uniform(0.1, 1.0, a.nnz)
    a = (a + a.T) / 2
    a = a + sp.diags(np.asarray(abs(a).sum(axis=1)).ravel() + 1.0)
    return sp.csr_matrix(a)


class TestColumnStructures:
    def test_matches_dense_pattern(self, rng):
        pattern = random_symmetric(15, 3.0, rng)
        parent = elimination_tree(pattern)
        structs = column_structures(pattern, parent)
        L = dense_symbolic_cholesky(pattern)
        for j in range(15):
            assert list(structs[j]) == list(np.flatnonzero(L[:, j]))

    def test_tridiagonal(self):
        pattern = banded(5, 1)
        structs = column_structures(pattern, elimination_tree(pattern))
        assert list(structs[0]) == [0, 1]
        assert list(structs[4]) == [4]


class TestNumericCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        a = make_spd(random_symmetric(20, 3.0, rng), rng)
        result = multifrontal_cholesky(a)
        ref = np.linalg.cholesky(a.toarray())
        assert np.allclose(result.L, ref, atol=1e-8)

    def test_grid(self):
        a = make_spd(grid2d(5))
        result = multifrontal_cholesky(a)
        assert np.allclose(result.L @ result.L.T, a.toarray(), atol=1e-8)

    def test_any_topological_order_same_factor(self, rng):
        """The key scheduling property: the factor is order-invariant."""
        a = make_spd(random_symmetric(15, 3.0, rng), rng)
        parent = elimination_tree(a)
        ref = multifrontal_cholesky(a).L
        # a random topological order: repeatedly pick a random ready node
        remaining = [sum(1 for j in range(15) if parent[j] == i) for i in range(15)]
        ready = [i for i in range(15) if remaining[i] == 0]
        order = []
        while ready:
            k = int(rng.integers(0, len(ready)))
            node = ready.pop(k)
            order.append(node)
            p = int(parent[node])
            if p != -1:
                remaining[p] -= 1
                if remaining[p] == 0:
                    ready.append(p)
        alt = multifrontal_cholesky(a, order=np.asarray(order)).L
        assert np.allclose(alt, ref, atol=1e-10)

    def test_non_topological_order_rejected(self):
        a = make_spd(banded(4, 1))
        with pytest.raises(ValueError, match="not topological"):
            multifrontal_cholesky(a, order=np.array([3, 2, 1, 0]))

    def test_non_spd_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(np.linalg.LinAlgError, match="pivot"):
            multifrontal_cholesky(a)


class TestScheduleDriven:
    def test_heuristic_schedules_compute_correct_factor(self, rng):
        """End-to-end: every heuristic's schedule of the elimination
        tree drives a correct numeric factorization."""
        from repro.matrices.amalgamation import amalgamate
        from repro.matrices.symbolic import symbolic_cholesky
        from repro.parallel import HEURISTICS

        a = make_spd(grid2d(4), rng)
        tree = amalgamate(symbolic_cholesky(a), 1).tree  # eta=1: one node/column
        ref = np.linalg.cholesky(a.toarray())
        for name, fn in HEURISTICS.items():
            schedule = fn(tree, 3)
            result = multifrontal_cholesky(a, schedule=schedule)
            assert np.allclose(result.L, ref, atol=1e-8), name

    def test_update_memory_positive(self, rng):
        a = make_spd(grid2d(4), rng)
        result = multifrontal_cholesky(a)
        assert result.peak_update_memory > 0
