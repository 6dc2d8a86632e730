"""Cross-cutting property-based tests: the model's global invariants.

Each test here ties at least two subsystems together; the per-module
suites cover local behaviour, this file certifies that the pieces agree
with one another (and with the paper's theorems) on randomly generated
instances.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro import registry
from repro.core.bounds import makespan_lower_bound, memory_lower_bound
from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory, simulate
from repro.core.validation import validate_schedule
from repro.parallel import (
    HEURISTICS,
    memory_bounded_schedule,
)
from repro.sequential import (
    liu_optimal_traversal,
    optimal_postorder,
    traversal_peak_memory,
)
from tests.conftest import pebble_trees, task_trees

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSequentialHierarchy:
    @given(task_trees(max_nodes=20))
    @settings(**_SETTINGS)
    def test_optimum_chain(self, tree):
        """exact optimum <= optimal postorder <= any list schedule's
        memory at p=1 (which realises the same postorder)."""
        exact = liu_optimal_traversal(tree).peak_memory
        postorder = optimal_postorder(tree).peak_memory
        inner = simulate(registry.run("ParInnerFirst", tree, 1)).peak_memory
        assert exact <= postorder + 1e-9
        assert abs(postorder - inner) < 1e-9

    @given(task_trees(max_nodes=20))
    @settings(**_SETTINGS)
    def test_memory_bound_is_sequential_floor(self, tree):
        """No schedule, on any p, beats the exact sequential optimum."""
        exact = liu_optimal_traversal(tree).peak_memory
        for p in (1, 2, 4):
            for fn in HEURISTICS.values():
                assert simulate(fn(tree, p)).peak_memory >= exact - 1e-9


class TestScheduleAlgebra:
    @given(task_trees(max_nodes=25))
    @settings(**_SETTINGS)
    def test_any_topological_order_is_valid_schedule(self, tree):
        """Sequential schedules from topological orders always validate,
        and their simulated memory equals the traversal evaluation."""
        for order in (tree.postorder(), optimal_postorder(tree).order):
            sch = Schedule.sequential(tree, order)
            validate_schedule(sch)
            assert abs(
                peak_memory(sch) - traversal_peak_memory(tree, order)
            ) < 1e-9

    @given(task_trees(max_nodes=25))
    @settings(**_SETTINGS)
    def test_heuristics_emit_complete_schedules(self, tree):
        for fn in HEURISTICS.values():
            sch = fn(tree, 3)
            assert np.all(sch.start >= -1e-12)
            assert np.all(sch.proc >= 0)
            # the root finishes last
            assert abs(sch.end[tree.root] - sch.makespan) < 1e-9


class TestBiObjectiveStructure:
    @given(task_trees(min_nodes=2, max_nodes=25))
    @settings(**_SETTINGS)
    def test_bounds_consistent(self, tree):
        """Lower bounds are mutually consistent: the memory bound is
        achievable sequentially; the makespan bound at p=1 is the total
        work and is achieved by every work-conserving heuristic."""
        assert memory_lower_bound(tree, "exact") <= memory_lower_bound(tree) + 1e-9
        lb1 = makespan_lower_bound(tree, 1)
        assert abs(lb1 - tree.total_work()) < 1e-9
        for name in ("ParSubtrees", "ParInnerFirst"):
            assert abs(simulate(registry.run(name, tree, 1)).makespan - lb1) < 1e-9

    @given(task_trees(min_nodes=2, max_nodes=25))
    @settings(**_SETTINGS)
    def test_capped_scheduler_interpolates(self, tree):
        """cap = M_seq gives memory M_seq. (The scheduler starts tasks
        in the activation order even under a huge cap, so Graham's list
        scheduling bound does not apply to it.)"""
        mseq = optimal_postorder(tree).peak_memory
        tight = simulate(memory_bounded_schedule(tree, 3, mseq))
        assert tight.peak_memory <= mseq + 1e-9


class TestPebbleModel:
    @given(pebble_trees(min_nodes=2, max_nodes=25))
    @settings(**_SETTINGS)
    def test_integral_memory(self, tree):
        """In the Pebble Game model every measured peak is an integer
        (pebbles are unit files)."""
        for fn in HEURISTICS.values():
            peak = simulate(fn(tree, 2)).peak_memory
            assert peak == int(peak)

    @given(pebble_trees(min_nodes=2, max_nodes=25))
    @settings(**_SETTINGS)
    def test_peak_at_least_max_degree_plus_one(self, tree):
        """Processing the highest-degree node requires all its inputs
        plus its output simultaneously."""
        floor = max(tree.degree(i) for i in range(tree.n)) + 1
        assert liu_optimal_traversal(tree).peak_memory >= floor - 1e-9
