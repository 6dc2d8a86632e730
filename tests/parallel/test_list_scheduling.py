"""Tests for the generic event-based list scheduler (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.engine import SchedulerEngine
from repro.core.prepared import PreparedTree
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule
from tests.conftest import task_trees


def fifo_priority(tree: TaskTree) -> np.ndarray:
    """Ready tasks by ascending index (rank = node index)."""
    return np.arange(tree.n)


class TestBasics:
    def test_single_node(self):
        t = TaskTree.from_parents([-1], w=3.0)
        sch = SchedulerEngine(t, 2, fifo_priority(t)).run()
        assert sch.makespan == 3.0

    def test_star_parallelism(self, star5):
        sch = SchedulerEngine(star5, 4, fifo_priority(star5)).run()
        validate_schedule(sch)
        assert sch.makespan == 2.0  # 4 leaves in parallel, then root

    def test_star_limited_processors(self, star5):
        sch = SchedulerEngine(star5, 2, fifo_priority(star5)).run()
        assert sch.makespan == 3.0  # 2+2 leaves, then root

    def test_chain_no_parallelism(self, chain5):
        sch = SchedulerEngine(chain5, 8, fifo_priority(chain5)).run()
        assert sch.makespan == 5.0  # the critical path

    def test_rejects_bad_p(self, star5):
        with pytest.raises(ValueError):
            SchedulerEngine(star5, 0, fifo_priority(star5))

    def test_priority_respected(self, star5):
        # Reverse priority: leaf 4 should start at t=0 on one processor.
        sch = SchedulerEngine(star5, 1, np.arange(star5.n)[::-1]).run()
        assert sch.start[4] == 0.0
        assert sch.start[1] == 3.0


class TestListSchedulingProperties:
    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_valid_and_graham_bound(self, tree):
        """Any list schedule is valid and satisfies Graham's bound
        ``Cmax <= W/p + (1 - 1/p) * CP`` -- the paper's
        (2 - 1/p)-approximation argument for ParInnerFirst/DeepestFirst."""
        W = tree.total_work()
        CP = tree.critical_path()
        for p in (1, 2, 5):
            sch = SchedulerEngine(tree, p, fifo_priority(tree)).run()
            validate_schedule(sch)
            assert sch.makespan <= W / p + (1 - 1 / p) * CP + 1e-9

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_no_unforced_idleness(self, tree):
        """Work-conservation: with p=1 the schedule is back-to-back."""
        sch = SchedulerEngine(tree, 1, fifo_priority(tree)).run()
        assert sch.makespan == tree.total_work()

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_more_processors_never_hurt_much(self, tree):
        """Monotonic workload: makespan with 2p is at most that with p
        plus slack (list scheduling anomalies are bounded by Graham)."""
        m_many = SchedulerEngine(tree, 16, fifo_priority(tree)).run().makespan
        assert m_many >= tree.critical_path() - 1e-9


class TestPostorderRanks:
    """The optimal postorder's rank (the list heuristics' ``O``)."""

    def test_ranks_are_permutation(self, paper_example):
        ranks = PreparedTree(paper_example).sigma_rank()
        assert sorted(ranks) == list(range(paper_example.n))

    def test_root_is_last(self, paper_example):
        ranks = PreparedTree(paper_example).sigma_rank()
        assert ranks[paper_example.root] == paper_example.n - 1
