"""Tests for ParDeepestFirst (Section 5.3)."""

from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule
from repro.pebble.counterexamples import deepest_first_memory_tree
from repro.sequential.postorder import optimal_postorder
from tests.conftest import task_trees


class TestPriorities:
    def test_deepest_leaf_first(self):
        """The start of the weighted critical path runs first."""
        #  0 <- 1 <- 2 (deep chain), 0 <- 3 (shallow leaf)
        t = TaskTree.from_parents([-1, 0, 1, 0], w=[1, 1, 5, 1])
        sch = registry.run("ParDeepestFirst", t, 1)
        assert sch.start[2] == 0.0  # w-depth 7: deepest
        assert sch.start[3] > 0.0

    def test_w_weighted_not_hop_depth(self):
        """A heavy shallow leaf beats a light deep leaf."""
        # leaf 3 at depth 1 with w=10 (w-depth 11); chain 1<-2 w-depth 3.
        t = TaskTree.from_parents([-1, 0, 1, 0], w=[1, 1, 1, 10])
        sch = registry.run("ParDeepestFirst", t, 1)
        assert sch.start[3] == 0.0


class TestMakespanGuarantee:
    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_graham_bound(self, tree):
        W, CP = tree.total_work(), tree.critical_path()
        for p in (2, 4, 8):
            sch = registry.run("ParDeepestFirst", tree, p)
            validate_schedule(sch)
            assert sch.makespan <= W / p + (1 - 1 / p) * CP + 1e-9

    def test_near_optimal_on_balanced(self):
        """On a balanced binary tree with ample processors the makespan
        hits the critical path exactly."""
        parents = [-1]
        frontier = [0]
        for _ in range(4):
            nxt = []
            for node in frontier:
                for _ in range(2):
                    parents.append(node)
                    nxt.append(len(parents) - 1)
            frontier = nxt
        t = TaskTree.from_parents(parents)
        sch = registry.run("ParDeepestFirst", t, 16)
        assert sch.makespan == t.critical_path()


class TestMemoryBlowUp:
    def test_figure5_memory_growth(self):
        """Figure 5: Mseq stays 3, ParDeepestFirst memory ~ #chains."""
        for chains in (4, 8, 16):
            t = deepest_first_memory_tree(chains, 6)
            assert optimal_postorder(t).peak_memory == 3.0
            sim = simulate(registry.run("ParDeepestFirst", t, chains))
            assert sim.peak_memory >= chains  # unbounded vs Mseq = 3
