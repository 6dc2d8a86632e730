"""The prepared subtree caches against subtree extraction.

``PreparedTree.subtree_order(r)`` must be exactly the optimal postorder
of the extracted subtree rooted at ``r`` (mapped back to the original
node indices), and ``PreparedTree.subtree_peak(r)`` exactly its peak,
for every subtree root -- on the paper's data set, on tie-heavy
unit-weight trees and on the star and chain extremes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.prepared import PreparedTree
from repro.core.tree import TaskTree
from repro.sequential.postorder import optimal_postorder
from repro.workloads.dataset import PROCESSOR_COUNTS, build_dataset
from repro.workloads.synthetic import random_weighted_tree
from tests.conftest import pebble_trees, task_trees
from tests.parallel.split_reference import ref_split_subtrees


def extracted(tree: TaskTree, r: int):
    """The reference: optimal postorder of the extracted subtree, in
    original node indices, with its peak."""
    sub, nodes = tree.subtree(r)
    res = optimal_postorder(sub)
    return nodes[res.order], res.peak_memory


def assert_subtrees_match(tree: TaskTree, roots=None) -> None:
    prepared = PreparedTree(tree)
    for r in range(tree.n) if roots is None else roots:
        order, peak = extracted(tree, r)
        assert np.array_equal(prepared.subtree_order(r), order), r
        assert prepared.subtree_peak(r) == peak, r


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(scale="small")


class TestSubtreeOrderAndPeak:
    def test_tiny_dataset_every_root(self):
        for inst in build_dataset(scale="tiny"):
            assert_subtrees_match(inst.tree)

    def test_small_dataset(self, small_dataset):
        """Every root of every 16th paper-scale tree, and every 32nd
        root of all the others."""
        for i, inst in enumerate(small_dataset):
            roots = None if i % 16 == 0 else range(0, inst.tree.n, 32)
            assert_subtrees_match(inst.tree, roots)

    @given(pebble_trees(min_nodes=1, max_nodes=80))
    @settings(max_examples=60, deadline=None)
    def test_unit_weight_trees(self, tree):
        """f = 1, n = 0, w = 1: sibling ties on ``M_j - f_j`` everywhere."""
        assert_subtrees_match(tree)

    @given(task_trees(min_nodes=1, max_nodes=60, max_f=2, max_size=1))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, tree):
        assert_subtrees_match(tree)

    @pytest.mark.parametrize(
        "parents",
        [
            [-1],
            [-1] + [0] * 200,  # star: 200 tied leaves
            [-1] + list(range(399)),  # chain: deep, per-node loop path
            [-1, 0] + [1] * 50 + list(range(2, 51)),  # star under a chain
        ],
        ids=["single", "star", "chain", "broom"],
    )
    def test_extremes(self, parents):
        assert_subtrees_match(TaskTree.from_parents(parents))

    def test_float_memory_weights(self):
        """Non-integral memory weights take the separate descending-tie
        peaks pass (tie order can change float sums there)."""
        rng = np.random.default_rng(3)
        for n in (40, 300):
            base = random_weighted_tree(n, rng)
            f = rng.choice([0.1, 0.2, 0.3], n)  # few distinct values: ties
            tree = base.with_weights(f=f, sizes=rng.choice([0.0, 0.1], n))
            assert_subtrees_match(tree)

    def test_ties_break_in_descending_order(self):
        """Guards the tie direction: on a tree of tied siblings the
        ascending-tie global order (``PreparedTree.optimal``) is *not*
        a slice-wise match of the extracted subtrees, while the cached
        subtree orders are."""
        tree = TaskTree.from_parents([-1, 0, 0, 1, 1, 2, 2])
        prepared = PreparedTree(tree)
        ascending = prepared.optimal().order
        assert ascending.tolist() == [3, 4, 1, 5, 6, 2, 0]
        for r in range(tree.n):
            order, _ = extracted(tree, r)
            assert prepared.subtree_order(r).tolist() == order.tolist()
        assert prepared.subtree_order(0).tolist() == [6, 5, 2, 4, 3, 1, 0]
        assert extracted(tree, 0)[0].tolist() != ascending.tolist()

    def test_subtree_orders_are_read_only_views(self):
        prepared = PreparedTree(random_weighted_tree(50, np.random.default_rng(1)))
        with pytest.raises(ValueError):
            prepared.subtree_order(0)[0] = 1


class TestPreparedSplit:
    def test_matches_incremental_split_field_by_field(self, small_dataset):
        """Against the incremental Algorithm 2 the split plan replaced."""
        for inst in small_dataset[::4]:
            prepared = PreparedTree(inst.tree)
            for p in PROCESSOR_COUNTS:
                got = prepared.split(p)
                ref = ref_split_subtrees(inst.tree, p)
                for field in ("parallel_roots", "frontier_roots", "cost", "steps"):
                    assert getattr(got, field) == getattr(ref, field), (inst.name, p, field)
                assert prepared.split(p) is got  # cached per p

    def test_rejects_nonpositive_p(self, paper_example):
        with pytest.raises(ValueError):
            PreparedTree(paper_example).split(0)
