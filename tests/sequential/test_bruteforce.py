"""Tests for the exhaustive-search oracles themselves."""

import pytest
from hypothesis import given, settings

from repro.core.tree import TaskTree
from repro.sequential.traversal import check_topological, traversal_peak_memory
from tests.conftest import task_trees
from tests.sequential.bruteforce import (
    best_postorder_bruteforce,
    best_traversal_bruteforce,
)


class TestGuards:
    def test_size_guard_postorder(self):
        t = TaskTree.from_parents([-1] + [0] * 14)
        with pytest.raises(ValueError, match="limited"):
            best_postorder_bruteforce(t)

    def test_size_guard_traversal(self):
        t = TaskTree.from_parents([-1] + [0] * 14)
        with pytest.raises(ValueError, match="limited"):
            best_traversal_bruteforce(t)


class TestOracleConsistency:
    def test_traversal_at_most_postorder(self, chain5):
        bt = best_traversal_bruteforce(chain5)
        bp = best_postorder_bruteforce(chain5)
        assert bt.peak_memory <= bp.peak_memory

    @given(task_trees(max_nodes=7))
    @settings(max_examples=40, deadline=None)
    def test_oracle_orders_valid(self, tree):
        for oracle in (best_postorder_bruteforce, best_traversal_bruteforce):
            res = oracle(tree)
            check_topological(tree, res.order)
            assert abs(
                traversal_peak_memory(tree, res.order) - res.peak_memory
            ) < 1e-9

    @given(task_trees(max_nodes=7))
    @settings(max_examples=40, deadline=None)
    def test_general_never_worse_than_postorder(self, tree):
        bt = best_traversal_bruteforce(tree)
        bp = best_postorder_bruteforce(tree)
        assert bt.peak_memory <= bp.peak_memory + 1e-9

    def test_postorder_bruteforce_on_star_is_tight(self, star5):
        # Any order of a star gives the same peak.
        assert best_postorder_bruteforce(star5).peak_memory == 5.0
        assert best_traversal_bruteforce(star5).peak_memory == 5.0
