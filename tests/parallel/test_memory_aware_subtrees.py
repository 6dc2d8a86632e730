"""Tests for the memory-aware ParSubtrees variant."""

import pytest
from hypothesis import given, settings

from repro.core.simulator import simulate
from repro.core.validation import validate_schedule
from repro.parallel.memory_aware_subtrees import (
    par_subtrees_memory_aware,
    predicted_parallel_memory,
)
from repro.parallel.memory_bounded import MemoryCapError
from repro.parallel.par_subtrees import par_subtrees
from repro.sequential.postorder import optimal_postorder
from tests.conftest import task_trees


class TestCapRespected:
    @given(task_trees(min_nodes=2, max_nodes=35))
    @settings(max_examples=30, deadline=None)
    def test_cap_always_respected(self, tree):
        mseq = optimal_postorder(tree).peak_memory
        for factor in (1.0, 2.0, 5.0):
            sch = par_subtrees_memory_aware(tree, 4, cap=factor * mseq)
            validate_schedule(sch)
            assert simulate(sch).peak_memory <= factor * mseq + 1e-9

    def test_infeasible_cap(self, star5):
        with pytest.raises(MemoryCapError, match="infeasible"):
            par_subtrees_memory_aware(star5, 2, cap=2.0)

    def test_bad_cap(self, star5):
        with pytest.raises(ValueError):
            par_subtrees_memory_aware(star5, 2, cap=0.0)

    def test_nan_cap(self, star5):
        """NaN compares False with everything: rejected like a cap <= 0
        instead of a cap that never binds."""
        from repro import registry

        with pytest.raises(ValueError, match="positive"):
            par_subtrees_memory_aware(star5, 2, cap=float("nan"))
        with pytest.raises(ValueError, match="positive"):
            registry.run("MemoryAwareSubtrees", star5, 2, cap_factor=float("nan"))


class TestAdaptiveConcurrency:
    def test_tight_cap_degenerates_to_sequential(self):
        """Two pebble chains: concurrent processing needs 4 units while
        the sequential optimum is 3, so cap = 3 forces sequentiality."""
        from repro.core.tree import TaskTree

        t = TaskTree.pebble_game([-1, 0, 1, 2, 0, 4, 5])  # two chains of 3
        mseq = optimal_postorder(t).peak_memory
        assert mseq == 3.0
        sch = par_subtrees_memory_aware(t, 2, cap=mseq)
        assert simulate(sch).peak_memory <= mseq
        assert sch.makespan == t.total_work()  # fully sequential

    def test_loose_cap_parallelises(self):
        """With an ample budget the schedule matches plain ParSubtrees."""
        from repro.core.tree import TaskTree

        t = TaskTree.from_parents([-1, 0, 0, 1, 1, 2, 2], w=1.0)
        generous = par_subtrees_memory_aware(t, 2, cap=1e9)
        plain = par_subtrees(t, 2)
        assert generous.makespan == plain.makespan

    @given(task_trees(min_nodes=3, max_nodes=30))
    @settings(max_examples=25, deadline=None)
    def test_larger_cap_never_slower(self, tree):
        mseq = optimal_postorder(tree).peak_memory
        tight = par_subtrees_memory_aware(tree, 4, cap=mseq).makespan
        loose = par_subtrees_memory_aware(tree, 4, cap=10 * mseq).makespan
        assert loose <= tight + 1e-9


class TestPredictor:
    def test_predictor_monotone_in_q(self, paper_example):
        from repro.parallel.split_subtrees import split_subtrees

        roots = list(split_subtrees(paper_example, 3).frontier_roots)
        if len(roots) >= 2:
            p1 = predicted_parallel_memory(paper_example, roots, 1)
            p2 = predicted_parallel_memory(paper_example, roots, 2)
            assert p2 >= p1
