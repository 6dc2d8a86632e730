"""Tests for the out-tree <-> in-tree reduction (Section 1)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory
from repro.core.tree import NO_PARENT
from repro.sequential.postorder import optimal_postorder
from tests.sequential.reductions import (
    OutTree,
    out_tree_peak_memory,
    out_tree_to_in_tree,
    reverse_schedule,
    schedule_out_tree,
)
from tests.conftest import task_trees


def random_out_tree(tree):
    """View a random TaskTree as an out-tree (g := f)."""
    return OutTree(parent=tree.parent, w=tree.w, g=tree.f, sizes=tree.sizes)


class TestReduction:
    def test_structure_preserved(self, paper_example):
        ot = random_out_tree(paper_example)
        it = out_tree_to_in_tree(ot)
        assert np.array_equal(it.parent, paper_example.parent)
        assert np.array_equal(it.f, paper_example.f)

    def test_rejects_rootless(self):
        with pytest.raises(ValueError, match="root"):
            OutTree(np.array([0, 1]), np.ones(2), np.ones(2), np.zeros(2))


class TestReverseSchedule:
    @given(task_trees(min_nodes=1, max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_makespan_preserved(self, tree):
        sch = Schedule.sequential(tree, optimal_postorder(tree).order, p=2)
        rev = reverse_schedule(sch)
        assert abs(rev.makespan - sch.makespan) < 1e-9

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_precedence_reversed(self, tree):
        """In reversed time, every parent finishes before its child
        starts -- the out-tree's dependency direction."""
        sch = Schedule.sequential(tree, optimal_postorder(tree).order)
        rev = reverse_schedule(sch)
        rend = rev.start + tree.w
        for i in range(tree.n):
            p = int(tree.parent[i])
            if p != NO_PARENT:
                assert rend[p] <= rev.start[i] + 1e-9

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, tree):
        sch = Schedule.sequential(tree, optimal_postorder(tree).order)
        double = reverse_schedule(reverse_schedule(sch))
        assert np.allclose(double.start, sch.start)


class TestMemoryEquivalence:
    @given(task_trees(min_nodes=1, max_nodes=25))
    @settings(max_examples=40, deadline=None)
    def test_peak_memory_preserved_under_reversal(self, tree):
        """The paper's Section 1 claim, executable: the out-tree
        execution obtained by reversing time uses exactly the in-tree
        schedule's peak memory."""
        ot = random_out_tree(tree)
        it = out_tree_to_in_tree(ot)
        sch = Schedule.sequential(it, optimal_postorder(it).order, p=2)
        rev = reverse_schedule(sch)
        assert abs(out_tree_peak_memory(ot, rev) - peak_memory(sch)) < 1e-9

    def test_parallel_schedule_equivalence(self, paper_example):
        from repro import registry

        ot = random_out_tree(paper_example)
        it = out_tree_to_in_tree(ot)
        sch = registry.run("ParDeepestFirst", it, 3)
        rev = reverse_schedule(sch)
        assert abs(out_tree_peak_memory(ot, rev) - peak_memory(sch)) < 1e-9


class TestScheduleOutTree:
    def test_end_to_end(self, paper_example):
        ot = random_out_tree(paper_example)
        rev, it = schedule_out_tree(ot, p=2)
        # the reversed schedule is an out-tree execution: root first
        root = it.root
        assert rev.start[root] == 0.0
        assert abs(out_tree_peak_memory(ot, rev) - peak_memory(reverse_schedule(rev))) < 1e-9
