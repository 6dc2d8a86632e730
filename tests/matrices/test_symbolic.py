"""Tests for the symbolic factorization wrapper."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.matrices.amalgamation import amalgamate
from repro.matrices.generators import banded, grid2d, grid3d, random_symmetric
from repro.matrices.symbolic import symbolic_cholesky
from tests.matrices.dense_symbolic import dense_symbolic_cholesky


class TestSymbolicFactorization:
    def test_tridiagonal(self):
        sym = symbolic_cholesky(banded(8, 1))
        assert sym.n == 8
        assert sym.factor_nnz == 2 * 8 - 1
        assert sym.height() == 7
        assert np.sum(sym.parent == -1) == 1  # one elimination tree

    def test_identity_forest(self):
        sym = symbolic_cholesky(sp.identity(6, format="csr"))
        assert np.sum(sym.parent == -1) == 6  # a forest of singletons
        assert sym.factor_nnz == 6
        assert sym.height() == 0

    def test_factor_nnz_matches_dense(self, rng):
        for _ in range(5):
            a = random_symmetric(int(rng.integers(5, 25)), 3.0, rng)
            sym = symbolic_cholesky(a)
            L = dense_symbolic_cholesky(a)
            assert sym.factor_nnz == int(L.sum())

    def test_grid_counts_positive(self):
        sym = symbolic_cholesky(grid2d(6))
        assert np.all(sym.counts >= 1)
        assert sym.counts[-1] == 1  # last column: diagonal only


class TestDenseReference:
    def test_no_fill_on_tridiagonal(self):
        L = dense_symbolic_cholesky(banded(6, 1))
        assert int(L.sum()) == 11

    def test_full_fill_on_arrow_reversed(self):
        """Arrow pointing up-left creates total fill below the spike."""
        n = 5
        a = sp.lil_matrix((n, n))
        a[np.arange(n), np.arange(n)] = 1
        a[0, :] = 1
        a[:, 0] = 1
        L = dense_symbolic_cholesky(sp.csr_matrix(a))
        assert int(L.sum()) == n * (n + 1) // 2  # completely dense

    def test_lower_triangular(self, rng):
        a = random_symmetric(12, 3.0, rng)
        L = dense_symbolic_cholesky(a)
        assert not np.any(np.triu(L, k=1))


class TestMatrixMarketInput:
    """A ``.mtx`` file read with ``scipy.io.mmread`` feeds the pipeline,
    as a real UFL collection matrix would, and gives the same assembly
    tree as the matrix it was written from."""

    MATRICES = {
        "grid2d": lambda: grid2d(6),
        "grid3d": lambda: grid3d(3),
        "banded": lambda: banded(30, 3),
    }

    @pytest.mark.parametrize("symmetry", ["symmetric", "general"])
    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_file_gives_same_assembly_tree(self, tmp_path, name, symmetry):
        a = self.MATRICES[name]()
        path = tmp_path / f"{name}.mtx"
        scipy.io.mmwrite(path, a, symmetry=symmetry)
        read = sp.csr_matrix(scipy.io.mmread(path))
        assert (read != a).nnz == 0
        expected = amalgamate(symbolic_cholesky(a), 2).tree
        tree = amalgamate(symbolic_cholesky(read), 2).tree
        assert tree.n > 1
        for col in ("parent", "w", "f", "sizes"):
            assert np.array_equal(getattr(tree, col), getattr(expected, col))

    def test_gzip_file(self, tmp_path):
        import gzip
        import shutil

        a = grid2d(5)
        scipy.io.mmwrite(tmp_path / "g.mtx", a, symmetry="symmetric")
        with open(tmp_path / "g.mtx", "rb") as src, gzip.open(tmp_path / "g.mtx.gz", "wb") as dst:
            shutil.copyfileobj(src, dst)
        read = sp.csr_matrix(scipy.io.mmread(tmp_path / "g.mtx.gz"))
        assert symbolic_cholesky(read).factor_nnz == symbolic_cholesky(a).factor_nnz
