"""Unit and property tests for the lower bounds."""

import pytest
from hypothesis import given, settings

from repro import registry
from repro.core.bounds import makespan_lower_bound, memory_lower_bound
from repro.core.simulator import simulate
from repro.parallel.heuristics import HEURISTICS
from tests.conftest import task_trees


class TestMakespanLowerBound:
    def test_single_processor_is_total_work(self, paper_example):
        assert makespan_lower_bound(paper_example, 1) == paper_example.total_work()

    def test_many_processors_is_critical_path(self, paper_example):
        assert makespan_lower_bound(paper_example, 1000) == paper_example.critical_path()

    def test_rejects_bad_p(self, paper_example):
        with pytest.raises(ValueError):
            makespan_lower_bound(paper_example, 0)


class TestMemoryLowerBound:
    def test_postorder_vs_exact(self, paper_example):
        po = memory_lower_bound(paper_example, "postorder")
        exact = memory_lower_bound(paper_example, "exact")
        assert exact <= po + 1e-9

    def test_unknown_method(self, paper_example):
        with pytest.raises(ValueError, match="unknown"):
            memory_lower_bound(paper_example, "magic")


class TestBoundsHold:
    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=25, deadline=None)
    def test_all_heuristics_respect_bounds(self, tree):
        """Every heuristic's measured performance dominates both bounds."""
        mem_lb = memory_lower_bound(tree, "exact")
        for p in (1, 3):
            mk_lb = makespan_lower_bound(tree, p)
            for name in HEURISTICS:
                r = simulate(registry.run(name, tree, p), validate=True)
                assert r.makespan >= mk_lb - 1e-9, name
                assert r.peak_memory >= mem_lb - 1e-9, name
