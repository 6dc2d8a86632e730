"""Tests for relaxed node amalgamation and the weight model."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.matrices.amalgamation import amalgamate
from repro.matrices.generators import banded, grid2d, random_symmetric
from repro.matrices.ordering import ORDERINGS, apply_ordering, nested_dissection
from repro.matrices.symbolic import SymbolicFactorization, symbolic_cholesky
from repro.matrices.weights import node_weights
from tests.matrices.amalgamation_reference import amalgamate as reference_amalgamate
from tests.matrices.patterns import EDGE_CASES, symmetric_patterns

#: the paper's relaxed-amalgamation caps
CAPS = [1, 2, 4, 16]


class TestNoAmalgamation:
    def test_cap1_is_identity(self):
        sym = symbolic_cholesky(grid2d(5))
        at = amalgamate(sym, 1)
        # every elimination node is its own assembly node (one tree root
        # for a connected grid, no virtual root needed)
        assert at.tree.n == sym.n
        assert np.all(at.eta == 1)
        assert np.array_equal(at.mu, sym.counts)

    def test_cap1_weights_formula(self):
        sym = symbolic_cholesky(banded(6, 1))
        at = amalgamate(sym, 1)
        for k in range(at.tree.n):
            n_i, w_i, f_i = node_weights(int(at.eta[k]), int(at.mu[k]))
            assert at.tree.sizes[k] == n_i
            assert at.tree.w[k] == w_i
            assert at.tree.f[k] == f_i


class TestCaps:
    @pytest.mark.parametrize("cap", [2, 4, 16])
    def test_eta_within_cap_and_conserved(self, cap):
        sym = symbolic_cholesky(grid2d(6))
        at = amalgamate(sym, cap)
        assert at.eta.max() <= cap
        # every elimination node is in exactly one group
        assert at.eta.sum() >= sym.n
        assert sorted(set(at.group_of)) == list(range(len(set(at.group_of))))

    def test_monotone_coarsening(self):
        """Bigger caps yield (weakly) fewer assembly nodes."""
        sym = symbolic_cholesky(grid2d(8))
        ns = [amalgamate(sym, cap).tree.n for cap in (1, 2, 4, 16)]
        assert ns == sorted(ns, reverse=True)

    def test_chain_amalgamation(self):
        """A tridiagonal etree is a chain of perfectly nested columns:
        cap=4 packs nodes in groups of 4."""
        sym = symbolic_cholesky(banded(16, 1))
        at = amalgamate(sym, 4, relax=0.5)
        assert at.tree.n < 16
        assert at.eta.max() == 4

    def test_rejects_bad_cap(self):
        sym = symbolic_cholesky(banded(4, 1))
        with pytest.raises(ValueError):
            amalgamate(sym, 0)


class TestTreeValidity:
    def test_forest_gets_virtual_root(self):
        import scipy.sparse as sp

        sym = symbolic_cholesky(sp.identity(4, format="csr"))
        at = amalgamate(sym, 1)
        assert at.tree.n == 5  # 4 + virtual root
        assert at.tree.degree(at.tree.root) == 4
        assert at.tree.f[at.tree.root] == 0.0

    def test_parent_consistency(self, rng):
        """Assembly-tree edges reflect etree edges between groups: a
        group is a chain of etree nodes merged into their parents, so an
        etree edge that leaves a group leaves it at its highest node, and
        the group of that node's etree parent is the assembly parent."""
        a = random_symmetric(40, 3.0, rng)
        perm = nested_dissection(a, leaf_size=8)
        sym = symbolic_cholesky(apply_ordering(a, perm))
        at = amalgamate(sym, 4)
        crossing = 0
        for j in range(sym.n):
            p = int(sym.parent[j])
            if p == -1:
                continue
            gj, gp = int(at.group_of[j]), int(at.group_of[p])
            if gj != gp:
                assert int(at.tree.parent[gj]) == gp, (j, p)
                crossing += 1
        assert 0 < crossing < sym.n - 1  # some edges merged, some not

    def test_weights_positive(self):
        sym = symbolic_cholesky(grid2d(6))
        at = amalgamate(sym, 4)
        assert np.all(at.tree.w > 0)
        assert np.all(at.tree.sizes > 0)
        assert np.all(at.tree.f >= 0)


class TestWeightsFormulas:
    def test_pebble_like_minimum(self):
        assert node_weights(1, 1) == (1.0, 2.0 / 3.0, 0.0)

    def test_known_values(self):
        n_i, w_i, f_i = node_weights(2, 4)
        assert n_i == 4 + 2 * 2 * 3
        assert w_i == (2 / 3) * 8 + 4 * 3 + 2 * 9
        assert f_i == 9.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            node_weights(0, 1)
        with pytest.raises(ValueError):
            node_weights(1, 0)


def assert_same_assembly(got, want):
    for name in ("parent", "w", "f", "sizes"):
        g, r = getattr(got.tree, name), getattr(want.tree, name)
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), name
    for name in ("eta", "mu", "group_of"):
        g, r = getattr(got, name), getattr(want, name)
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes(), name


class TestAgainstReference:
    """The list-based sweep against the numpy loop it replaced."""

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("name", [k for k in sorted(EDGE_CASES) if EDGE_CASES[k].shape[0]])
    def test_edge_cases(self, name, cap):
        sym = symbolic_cholesky(EDGE_CASES[name])
        assert_same_assembly(amalgamate(sym, cap), reference_amalgamate(sym, cap))

    @settings(max_examples=150, deadline=None)
    @given(
        symmetric_patterns(max_nodes=40),
        st.sampled_from(["natural", "min-degree", "nested-dissection"]),
        st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_random_factorizations(self, a, ordering, relax):
        assume(a.shape[0] > 0)
        sym = symbolic_cholesky(apply_ordering(a, ORDERINGS[ordering](a)))
        for cap in CAPS:
            assert_same_assembly(
                amalgamate(sym, cap, relax), reference_amalgamate(sym, cap, relax)
            )

    def test_rejects_parent_below_child(self):
        sym = SymbolicFactorization(
            parent=np.array([-1, 0], dtype=np.int64), counts=np.array([1, 2], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="larger indices"):
            amalgamate(sym, 2)
