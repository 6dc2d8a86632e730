"""Tests for the memory-capped scheduler (the future-work extension)."""

import pytest
from hypothesis import given, settings

from repro.core.simulator import simulate
from repro.core.validation import validate_schedule
from repro.parallel.memory_bounded import MemoryCapError, memory_bounded_schedule
from repro.sequential.postorder import optimal_postorder
from tests.conftest import task_trees


class TestFeasibility:
    @given(task_trees(min_nodes=1, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_strict_feasible_at_mseq(self, tree):
        """Strict mode is deadlock-free whenever cap >= the sequential
        peak of the activation order -- the guarantee proved in the
        module docstring."""
        cap = optimal_postorder(tree).peak_memory
        for p in (1, 2, 4):
            sch = memory_bounded_schedule(tree, p, cap)
            validate_schedule(sch)
            sim = simulate(sch)
            assert sim.peak_memory <= cap + 1e-9

    @given(task_trees(min_nodes=1, max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_cap_always_respected(self, tree):
        """Whatever the cap at least M_seq, the scheduler never fails and
        its schedule never exceeds the cap."""
        mseq = optimal_postorder(tree).peak_memory
        for factor in (1.0, 1.5, 3.0):
            sch = memory_bounded_schedule(tree, 3, factor * mseq)
            assert simulate(sch).peak_memory <= factor * mseq + 1e-9

    def test_infeasible_cap_raises(self, star5):
        with pytest.raises(MemoryCapError, match="infeasible"):
            memory_bounded_schedule(star5, 2, cap=1.0)


class TestTradeOff:
    @given(task_trees(min_nodes=4, max_nodes=40))
    @settings(max_examples=30, deadline=None)
    def test_larger_cap_never_slower(self, tree):
        """The makespan is non-increasing in the cap (more memory can
        only enable more parallelism): the start order is fixed."""
        mseq = optimal_postorder(tree).peak_memory
        spans = []
        for factor in (1.0, 2.0, 8.0):
            sch = memory_bounded_schedule(tree, 4, factor * mseq)
            spans.append(sch.makespan)
        assert spans[0] >= spans[1] - 1e-9
        assert spans[1] >= spans[2] - 1e-9

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_tight_cap_serializes(self, tree):
        """With cap = Mseq and p = 1 the schedule is the sequential
        traversal: makespan = total work."""
        cap = optimal_postorder(tree).peak_memory
        sch = memory_bounded_schedule(tree, 1, cap)
        assert abs(sch.makespan - tree.total_work()) < 1e-9


class TestInputs:
    def test_generous_cap_parallelises_the_star(self, star5):
        """With a generous cap the four leaves run at once."""
        sch = memory_bounded_schedule(star5, 4, cap=100.0)
        assert sch.makespan == 2.0

    def test_bad_p_rejected(self, star5):
        with pytest.raises(ValueError):
            memory_bounded_schedule(star5, 0, 10.0)
