"""Tests for the paper's heuristics view used by the experiment harness."""

from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.parallel.heuristics import HEURISTICS
from tests.conftest import task_trees


class TestRegistry:
    def test_paper_heuristics_present(self):
        assert list(HEURISTICS) == [
            "ParSubtrees",
            "ParSubtreesOptim",
            "ParInnerFirst",
            "ParDeepestFirst",
        ]

    def test_measured_values(self, paper_example):
        r = simulate(registry.run("ParSubtrees", paper_example, 2), validate=True)
        assert r.makespan > 0
        assert r.peak_memory > 0

    @given(task_trees(min_nodes=2, max_nodes=25))
    @settings(max_examples=20, deadline=None)
    def test_all_heuristics_consistent(self, tree):
        """All four heuristics process the same instance; memory-focused
        heuristics cannot beat the sequential bound and the two list
        schedulers dominate ParSubtrees's makespan prediction order."""
        for name in HEURISTICS:
            r = simulate(registry.run(name, tree, 3), validate=True)
            assert r.makespan >= tree.critical_path() - 1e-9
            assert r.makespan <= tree.total_work() + 1e-9
