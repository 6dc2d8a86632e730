"""Tests for Liu's optimal postorder: certified against brute force."""

import numpy as np
from hypothesis import given, settings

from repro.core.tree import TaskTree
from repro.sequential.postorder import natural_postorder, optimal_postorder, postorder_peaks
from repro.sequential.traversal import check_topological, traversal_peak_memory
from tests.conftest import task_trees
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
