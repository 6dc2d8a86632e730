"""Unit tests for the unified scheduling engine primitives."""

import numpy as np
import pytest

from repro.core.engine import (
    MemoryCapError,
    SchedulerEngine,
    lex_rank,
)
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule


class TestLexRank:
    def test_single_column(self):
        rank = lex_rank(np.asarray([3.0, 1.0, 2.0]))
        assert rank.tolist() == [2, 0, 1]

    def test_lexicographic_order(self):
        k0 = np.asarray([1, 0, 1, 0])
        k1 = np.asarray([5, 9, 4, 9])
        rank = lex_rank(k0, k1)
        # sorted tuples: (0,9,1) < (0,9,3) < (1,4,2) < (1,5,0)
        assert rank.tolist() == [3, 0, 2, 1]

    def test_index_breaks_full_ties(self):
        rank = lex_rank(np.zeros(4), np.zeros(4))
        assert rank.tolist() == [0, 1, 2, 3]

    def test_is_permutation(self):
        rng = np.random.default_rng(7)
        rank = lex_rank(rng.integers(0, 3, 50), rng.standard_normal(50))
        assert sorted(rank.tolist()) == list(range(50))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            lex_rank()

    def test_matches_tuple_sort(self):
        rng = np.random.default_rng(11)
        k0 = rng.integers(-5, 5, 40)
        k1 = rng.integers(0, 2, 40).astype(np.float64)
        rank = lex_rank(k0, k1)
        by_tuple = sorted(range(40), key=lambda i: (k0[i], k1[i], i))
        assert [int(np.flatnonzero(rank == r)[0]) for r in range(40)] == by_tuple


class TestEngineConfig:
    def test_bad_p(self, star5):
        with pytest.raises(ValueError, match="positive"):
            SchedulerEngine(star5, 0, np.arange(5))

    def test_bad_mode(self, star5):
        with pytest.raises(ValueError, match="unknown mode"):
            SchedulerEngine(star5, 2, np.arange(5), cap=10.0, mode="yolo")

    def test_bad_rank_length(self, star5):
        with pytest.raises(ValueError, match="one entry per task"):
            SchedulerEngine(star5, 2, np.arange(4))

    def test_rank_must_be_permutation(self, star5):
        """Raw priority scores (duplicates / out of range) are rejected
        with a pointer to lex_rank instead of scheduling garbage."""
        with pytest.raises(ValueError, match="permutation"):
            SchedulerEngine(star5, 2, np.asarray([0, 1, 1, 2, 3]))
        with pytest.raises(ValueError, match="permutation"):
            SchedulerEngine(star5, 2, np.asarray([0, 1, 2, 3, 7]))
        with pytest.raises(ValueError, match="permutation"):
            SchedulerEngine(star5, 2, np.asarray([-1, 1, 2, 3, 4]))

    def test_nan_cap_rejected(self, star5):
        """A NaN cap would never bind (every comparison with it is
        False), so the engine rejects it, and with it every capped
        front end."""
        from repro import registry
        from repro.parallel.memory_bounded import memory_bounded_schedule

        nan = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            SchedulerEngine(star5, 2, np.arange(5), cap=nan)
        with pytest.raises(ValueError, match="NaN"):
            memory_bounded_schedule(star5, 2, nan)
        with pytest.raises(ValueError, match="NaN"):
            registry.run("MemoryBounded", star5, 2, cap_factor=nan)

    def test_bad_order_length(self, star5):
        with pytest.raises(ValueError, match="every task"):
            SchedulerEngine(star5, 2, np.arange(5), cap=10.0, order=np.arange(3))

    def test_strict_rank_must_follow_order(self, star5):
        # sigma wants leaf 4 first, but the rank array prefers leaf 1;
        # with several ready leaves the mismatch trips immediately.
        rank = np.asarray([4, 0, 1, 2, 3])
        order = np.asarray([4, 3, 2, 1, 0])
        with pytest.raises(ValueError, match="activation order"):
            SchedulerEngine(star5, 1, rank, cap=100.0, order=order).run()


class TestEngineRun:
    def test_state_exposed_after_run(self, star5):
        """A run returns the schedule and names its sweep; no trace of
        how the schedule was built is kept."""
        engine = SchedulerEngine(star5, 2, np.arange(5))
        schedule = engine.run()
        validate_schedule(schedule)
        assert engine.backend_used in ("c", "python")
        assert not hasattr(engine, "sweep")

    def test_rank_order_respected_serially(self):
        tree = TaskTree.from_parents([-1, 0, 0, 0], w=1.0, f=1.0)
        # leaves 1,2,3: rank demands 3 first, then 1, then 2
        rank = np.asarray([3, 1, 2, 0])
        schedule = SchedulerEngine(tree, 1, rank).run()
        assert schedule.start[3] < schedule.start[1] < schedule.start[2]

    def test_memory_cap_respected(self, star5):
        from repro.core.simulator import simulate
        from repro.sequential.postorder import optimal_postorder

        res = optimal_postorder(star5)
        rank = np.empty(5, dtype=np.int64)
        rank[res.order] = np.arange(5)
        schedule = SchedulerEngine(
            star5, 4, rank, cap=res.peak_memory, order=res.order
        ).run()
        assert simulate(schedule).peak_memory <= res.peak_memory + 1e-9

    def test_infeasible_cap_raises(self, star5):
        with pytest.raises(MemoryCapError, match="infeasible"):
            SchedulerEngine(star5, 2, np.arange(5), cap=0.5).run()
