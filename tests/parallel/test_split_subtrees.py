"""Tests for SplitSubtrees (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import _ckernel
from repro.core.engine import resolve_backend
from repro.core.tree import TaskTree
from repro.parallel.split_subtrees import SplitPlan, split_subtrees
from repro.workloads.synthetic import random_weighted_tree
from tests.conftest import storm_trees, task_trees


def seq_nodes(tree, res) -> set[int]:
    """The nodes outside the parallel subtrees, processed sequentially."""
    in_parallel: set[int] = set()
    for r in res.parallel_roots:
        in_parallel.update(tree.subtree_nodes(r).tolist())
    return set(range(tree.n)) - in_parallel


class TestKnownSplits:
    def test_single_node(self):
        t = TaskTree.from_parents([-1], w=2.0)
        res = split_subtrees(t, 4)
        assert res.parallel_roots == (0,)
        assert seq_nodes(t, res) == set()
        assert res.cost == 2.0

    def test_fork_selects_cost1(self, star5):
        """On a fork the best splitting pops the root once (Figure 3)."""
        res = split_subtrees(star5, 2)
        # cost(0) = 5 (whole tree); cost(1) = 1 + 1 + surplus(2 leaves) = 4
        assert res.cost == 4.0
        assert 0 in seq_nodes(star5, res)
        assert len(res.parallel_roots) == 2

    def test_fork_paper_formula(self):
        """Figure 3: cost = p(k-1) + 2 on a p*k-leaf fork."""
        for p, k in [(2, 5), (4, 10)]:
            leaves = p * k
            t = TaskTree.from_parents([-1] + [0] * leaves)
            res = split_subtrees(t, p)
            assert res.cost == p * (k - 1) + 2

    def test_balanced_binary(self):
        # root with two equal subtrees: split once, process both in parallel.
        t = TaskTree.from_parents([-1, 0, 0, 1, 1, 2, 2], w=1.0)
        res = split_subtrees(t, 2)
        assert set(res.parallel_roots) == {1, 2}
        assert seq_nodes(t, res) == {0}
        assert res.cost == 3.0 + 1.0  # subtree work 3 + root

    def test_chain_whole_tree_sequential(self, chain5):
        """A chain cannot be parallelised: cost(0) = W_root is optimal,
        but deeper splits tie; the selected cost must equal W."""
        res = split_subtrees(chain5, 2)
        assert res.cost == 5.0


class TestSplitProperties:
    @given(task_trees(min_nodes=1, max_nodes=40))
    @settings(max_examples=50, deadline=None)
    def test_partition_exact(self, tree):
        """The frontier subtrees are disjoint, so the parallel subtrees
        and the sequential rest partition the tree; the parallel roots
        are the first (heaviest) ``p`` of the frontier."""
        for p in (1, 2, 4):
            res = split_subtrees(tree, p)
            assert res.parallel_roots == res.frontier_roots[:p]
            assert len(res.parallel_roots) <= p
            covered: set[int] = set()
            for r in res.frontier_roots:
                nodes = set(tree.subtree_nodes(r).tolist())
                assert not (nodes & covered)
                covered |= nodes

    @given(task_trees(min_nodes=1, max_nodes=40))
    @settings(max_examples=50, deadline=None)
    def test_subtrees_disjoint_and_maximal(self, tree):
        res = split_subtrees(tree, 3)
        seq = seq_nodes(tree, res)
        seen: set[int] = set()
        for r in res.parallel_roots:
            nodes = set(int(x) for x in tree.subtree_nodes(r))
            assert not (nodes & seen)
            seen |= nodes
        # maximality: the parent of each parallel root is sequential
        for r in res.frontier_roots:
            parent = int(tree.parent[r])
            if parent >= 0:
                assert parent in seq

    @given(task_trees(min_nodes=1, max_nodes=30))
    @settings(max_examples=50, deadline=None)
    def test_cost_formula_consistent(self, tree):
        """cost = max parallel subtree work + sequential work."""
        for p in (2, 4):
            res = split_subtrees(tree, p)
            work = tree.subtree_work()
            par = max((float(work[r]) for r in res.parallel_roots), default=0.0)
            seq = float(sum(tree.w[i] for i in seq_nodes(tree, res)))
            surplus = sum(
                float(work[r])
                for r in res.frontier_roots
                if r not in res.parallel_roots
            )
            # the sequential nodes include the surplus subtrees:
            assert abs(res.cost - (par + seq)) < 1e-6
            assert surplus <= seq + 1e-9

    @given(task_trees(min_nodes=1, max_nodes=24))
    @settings(max_examples=40, deadline=None)
    def test_cost_not_worse_than_whole_tree(self, tree):
        """Splitting never selected if worse than sequential processing."""
        res = split_subtrees(tree, 4)
        assert res.cost <= tree.total_work() + 1e-9


# ----------------------------------------------------------------------
# both dispatches: the compiled split against the Python replay
# ----------------------------------------------------------------------
def same_split(a, b) -> bool:
    """Field by field, the cost byte for byte (so -0.0 is not 0.0)."""
    return a == b and np.float64(a.cost).tobytes() == np.float64(b.cost).tobytes()


def assert_both_paths_agree(tree: TaskTree, ps=(1, 2, 3, 4, 8, 1000)) -> None:
    """The dispatched split, and where this process dispatches to the C
    library its direct result, equal the Python replay for every p."""
    plan = SplitPlan(tree, tree.subtree_work())
    for p in ps:
        want = plan._split_reference(p)
        assert same_split(plan.split(p), want), p
        if resolve_backend() == "c":
            got = plan._split_compiled(p)
            assert got is not None and same_split(got, want), p


class TestBothDispatches:
    @given(storm_trees())
    @settings(max_examples=300, deadline=None)
    def test_storms(self, tree):
        """Ties on subtree work and node work, zero-work nodes (the stop
        test's equality case), -0.0 work, float weights, stars, brooms
        and chains deeper than 64 levels."""
        assert_both_paths_agree(tree)

    @given(task_trees(min_nodes=1, max_nodes=60, min_w=0))
    @settings(max_examples=60, deadline=None)
    def test_integer_trees(self, tree):
        assert_both_paths_agree(tree)

    def test_paper_scale_trees(self):
        """Long pop sequences where the early stop fires."""
        for n in (500, 5000):
            assert_both_paths_agree(
                random_weighted_tree(n, np.random.default_rng(n)), ps=(2, 4, 8, 16, 32)
            )

    def test_library_declines_non_finite_work(self):
        if resolve_backend() != "c":
            pytest.skip("this process does not dispatch to the C library")
        tree = TaskTree.from_parents([-1, 0, 0], w=1.0)
        plan = SplitPlan(tree, tree.subtree_work())
        assert _ckernel.split_subtrees(
            2, tree.child_ptr, tree.child_idx, plan.rank, plan.by_rank,
            plan.rank_work * np.inf, tree.w, plan.stop, tree.root,
        ) is None
