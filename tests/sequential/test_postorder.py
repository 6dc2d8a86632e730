"""Tests for Liu's optimal postorder: certified against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import _ckernel
from repro.core.engine import resolve_backend
from repro.core.tree import TaskTree
from repro.sequential.postorder import (
    _compiled_postorders,
    _python_postorder,
    natural_postorder,
    optimal_postorder,
    optimal_postorders,
    postorder_peaks,
)
from repro.sequential.traversal import check_topological, traversal_peak_memory
from repro.workloads.synthetic import random_weighted_tree
from tests.conftest import storm_trees, task_trees
from tests.sequential.bruteforce import best_postorder_bruteforce


class TestKnownInstances:
    def test_leaf(self):
        t = TaskTree.from_parents([-1], f=7.0, sizes=2.0)
        res = optimal_postorder(t)
        assert res.peak_memory == 9.0

    def test_chain(self, chain5):
        assert optimal_postorder(chain5).peak_memory == 2.0

    def test_star(self, star5):
        assert optimal_postorder(star5).peak_memory == 5.0

    def test_child_order_matters(self):
        """Two subtrees: one with big peak/small output, one small peak.

        Processing the big-peak child first is strictly better.
        """
        #     0
        #    / \
        #   1   2        subtree 1 peaks high (children 3,4), f1 small
        #  /|
        # 3 4
        t = TaskTree.from_parents(
            [-1, 0, 0, 1, 1], w=1.0, f=[1, 1, 5, 6, 6], sizes=0.0
        )
        res = optimal_postorder(t)
        # best: child 1 first (peak 13), then 2 (1+5=6), root: 1+5+1=7
        assert res.peak_memory == 13.0
        bf = best_postorder_bruteforce(t)
        assert bf.peak_memory == 13.0

    def test_peaks_vector_root_matches(self, paper_example):
        peaks = postorder_peaks(paper_example)
        res = optimal_postorder(paper_example)
        assert peaks[paper_example.root] == res.peak_memory

    def test_deep_tree_iterative(self):
        n = 30_000
        t = TaskTree.from_parents([-1] + list(range(n - 1)), f=1.0)
        res = optimal_postorder(t)
        assert res.peak_memory == 2.0
        assert len(res.order) == n


class TestOptimality:
    @given(task_trees(max_nodes=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_postorder(self, tree):
        """The recurrence equals exhaustive search over all postorders."""
        res = optimal_postorder(tree)
        bf = best_postorder_bruteforce(tree)
        assert abs(res.peak_memory - bf.peak_memory) < 1e-9

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_order_realizes_reported_peak(self, tree):
        res = optimal_postorder(tree)
        check_topological(tree, res.order)
        assert abs(traversal_peak_memory(tree, res.order) - res.peak_memory) < 1e-9

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_natural_postorder(self, tree):
        assert (
            optimal_postorder(tree).peak_memory
            <= natural_postorder(tree).peak_memory + 1e-9
        )

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_beats_random_postorders(self, tree):
        """Any shuffled-children postorder is at least as expensive."""
        rng = np.random.default_rng(0)
        best = optimal_postorder(tree).peak_memory
        for _ in range(5):
            order = []
            stack = [(tree.root, 0)]
            shuffled = {
                i: list(rng.permutation(tree.children(i).tolist()).astype(int))
                for i in range(tree.n)
            }
            while stack:
                node, cur = stack.pop()
                kids = shuffled[node]
                if cur < len(kids):
                    stack.append((node, cur + 1))
                    stack.append((kids[cur], 0))
                else:
                    order.append(node)
            assert best <= traversal_peak_memory(tree, order) + 1e-9


# ----------------------------------------------------------------------
# both dispatches: the compiled pass against the per-node loop
# ----------------------------------------------------------------------
def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_both_paths_agree(tree: TaskTree) -> None:
    """The dispatched peaks and orders, and where this process
    dispatches to the C library its direct result, hold the bytes of
    the Python path for both tie orders."""
    want = {d: _python_postorder(tree, d) for d in (False, True)}
    results = [optimal_postorders(tree)]
    if resolve_backend() == "c":
        results.append(_compiled_postorders(tree))
    for got in results:
        assert got is not None and set(got) == {False, True}
        for d in (False, True):
            assert same_bytes(got[d][0], want[d][0]), ("peaks", d)
            assert same_bytes(got[d][1], want[d][1]), ("order", d)
    assert same_bytes(postorder_peaks(tree), want[False][0])
    res = optimal_postorder(tree)
    assert same_bytes(res.order, want[False][1])
    assert res.peak_memory == want[False][0][tree.root]


class TestBothDispatches:
    @given(storm_trees())
    @settings(max_examples=300, deadline=None)
    def test_storms(self, tree):
        """Equal-key sibling storms, zero outputs, -0.0 sizes, float
        weights, stars wider than the insertion-sort cutoff and chains
        deeper than 64 levels."""
        assert_both_paths_agree(tree)

    @given(task_trees(min_nodes=1, max_nodes=60))
    @settings(max_examples=60, deadline=None)
    def test_integer_trees(self, tree):
        assert_both_paths_agree(tree)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_paper_like_and_tiny(self, n):
        assert_both_paths_agree(random_weighted_tree(n, np.random.default_rng(n)))

    def test_deep_chain_and_wide_star(self):
        rng = np.random.default_rng(7)
        n = 3000
        for parents in ([-1] + list(range(n - 1)), [-1] + [0] * (n - 1)):
            assert_both_paths_agree(
                TaskTree.from_parents(
                    parents, w=1.0, f=rng.choice([0.1, 0.2, 0.3], n),
                    sizes=rng.choice([0.0, -0.0, 0.5], n),
                )
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_library_declines_non_finite_weights(self, bad):
        """Trees reject non-finite weights; the library declines them
        too (the caller then takes the Python path)."""
        if resolve_backend() != "c":
            pytest.skip("this process does not dispatch to the C library")
        tree = TaskTree.from_parents([-1, 0, 0], w=1.0, f=[1.0, 2.0, 2.0], sizes=0.0)
        f = tree.f.copy()
        f[1] = bad
        assert _ckernel.postorder_peaks(
            tree.child_ptr, tree.child_idx, tree.postorder(), f, tree.sizes
        ) is None
