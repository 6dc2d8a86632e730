"""Tests for the exact bi-objective solver (Pebble-Game model)."""

import pytest
from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule
from repro.parallel import HEURISTICS
from tests.pebble.exact import (
    EXACT_MAX_NODES,
    decide_bi_objective,
    exact_pareto_front,
)
from tests.conftest import pebble_trees


class TestDecision:
    def test_chain(self, chain5):
        # a 5-chain needs exactly 5 steps and 2 pebbles whatever p
        assert decide_bi_objective(chain5, 2, memory_bound=2, makespan_bound=5)
        assert decide_bi_objective(chain5, 2, memory_bound=2, makespan_bound=4) is None
        assert decide_bi_objective(chain5, 2, memory_bound=1, makespan_bound=9) is None

    def test_star_tradeoff(self, star5):
        # 4 leaves + root on p=4: 2 steps, 5 pebbles
        assert decide_bi_objective(star5, 4, memory_bound=5, makespan_bound=2)
        # with one processor: 5 steps, still 5 pebbles at the root step
        assert decide_bi_objective(star5, 1, memory_bound=5, makespan_bound=5)
        assert decide_bi_objective(star5, 4, memory_bound=4, makespan_bound=99) is None

    def test_witness_is_valid_and_meets_bounds(self, star5):
        sch = decide_bi_objective(star5, 2, memory_bound=5, makespan_bound=3)
        assert sch is not None
        validate_schedule(sch)
        sim = simulate(sch)
        assert sim.makespan <= 3 and sim.peak_memory <= 5

    def test_guards(self):
        big = TaskTree.pebble_game([-1] + [0] * EXACT_MAX_NODES)
        with pytest.raises(ValueError, match="limited"):
            decide_bi_objective(big, 2, 10, 10)
        weighted = TaskTree.from_parents([-1, 0], w=2.0)
        with pytest.raises(ValueError, match="Pebble Game"):
            decide_bi_objective(weighted, 2, 10, 10)


class TestParetoFront:
    def test_front_nondominated(self, star5):
        front = exact_pareto_front(star5, 2)
        for k in range(len(front) - 1):
            mk1, mem1, _ = front[k]
            mk2, mem2, _ = front[k + 1]
            assert mk1 < mk2 and mem1 > mem2

    def test_memory_floor_is_sequential_optimum(self, chain5):
        front = exact_pareto_front(chain5, 4)
        assert min(mem for _, mem, _ in front) == 2.0

    @given(pebble_trees(min_nodes=2, max_nodes=9))
    @settings(max_examples=20, deadline=None)
    def test_heuristics_dominated_by_front(self, tree):
        """No heuristic strictly beats the exact front -- and the exact
        minimum makespan is a certified lower bound on every heuristic."""
        for p in (2, 3):
            front = exact_pareto_front(tree, p)
            best_mk = min(mk for mk, _, _ in front)
            best_mem = min(mem for _, mem, _ in front)
            for name in HEURISTICS:
                r = simulate(registry.run(name, tree, p), validate=True)
                assert r.makespan >= best_mk - 1e-9
                assert r.peak_memory >= best_mem - 1e-9
                # not strictly better than every front point in both axes
                assert not any(
                    r.makespan < mk - 1e-9 and r.peak_memory < mem - 1e-9
                    for mk, mem, _ in front
                )

    @given(pebble_trees(min_nodes=2, max_nodes=9))
    @settings(max_examples=15, deadline=None)
    def test_front_schedules_validate(self, tree):
        for mk, mem, sch in exact_pareto_front(tree, 2):
            validate_schedule(sch)
            sim = simulate(sch)
            assert sim.makespan == mk
            assert sim.peak_memory == mem
