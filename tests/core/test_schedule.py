"""Unit tests for the Schedule representation."""

import numpy as np
import pytest

from repro.core.schedule import Schedule


class TestSequentialSchedule:
    def test_back_to_back(self, chain5):
        order = [4, 3, 2, 1, 0]
        sch = Schedule.sequential(chain5, order)
        assert sch.makespan == 5.0
        assert sch.start[4] == 0.0
        assert sch.start[0] == 4.0
        assert np.all(sch.proc == 0)

    def test_order_roundtrip(self, chain5):
        order = [4, 3, 2, 1, 0]
        sch = Schedule.sequential(chain5, order)
        assert list(sch.order()) == order

    def test_rejects_partial_order(self, chain5):
        with pytest.raises(ValueError, match="every task"):
            Schedule.sequential(chain5, [4, 3])

    def test_same_bytes_as_placing_nodes_one_by_one(self, rng):
        """One cumsum over the ordered durations makes the additions of
        ``t += w`` node by node: float durations, zeros, any order."""
        from tests.conftest import random_tree

        tree = random_tree(rng, 3000)
        tree = tree.with_weights(
            w=np.where(rng.random(tree.n) < 0.2, 0.0, rng.uniform(0.0, 3.0, tree.n))
        )
        order = tree.postorder()[::-1].copy()  # any permutation will do
        want = np.empty(tree.n)
        t = 0.0
        for node in order:
            want[node] = t
            t += tree.w[node]
        for given in (order, order.tolist(), iter(order.tolist())):
            got = Schedule.sequential(tree, given)
            assert got.start.tobytes() == want.tobytes()

    def test_makespan_weighted(self, paper_example):
        order = paper_example.postorder()
        sch = Schedule.sequential(paper_example, order)
        assert sch.makespan == paper_example.total_work()


class TestScheduleAccessors:
    def test_tasks_sorted_by_start(self, star5):
        start = np.array([2.0, 0.0, 0.0, 1.0, 1.0])
        proc = np.array([0, 0, 1, 0, 1])
        sch = Schedule(star5, start, proc, p=2)
        rows = sch.tasks()
        assert [t.node for t in rows[:2]] == [1, 2]
        assert rows[-1].node == 0

    def test_processor_tasks(self, star5):
        start = np.array([2.0, 0.0, 0.0, 1.0, 1.0])
        proc = np.array([0, 0, 1, 0, 1])
        sch = Schedule(star5, start, proc, p=2)
        p1 = sch.processor_tasks(1)
        assert [t.node for t in p1] == [2, 4]

    def test_end_times(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder())
        assert np.allclose(sch.end, sch.start + paper_example.w)

    def test_rejects_wrong_lengths(self, star5):
        with pytest.raises(ValueError, match="one entry per task"):
            Schedule(star5, np.zeros(3), np.zeros(3, dtype=int), p=1)

    def test_rejects_zero_processors(self, star5):
        with pytest.raises(ValueError, match="at least one processor"):
            Schedule(star5, np.zeros(5), np.zeros(5, dtype=int), p=0)


class TestGantt:
    def test_gantt_renders(self, paper_example):
        sch = Schedule.sequential(paper_example, paper_example.postorder(), p=2)
        text = sch.gantt(width=40)
        assert "P0" in text and "P1" in text
        assert "#" in text

    def test_gantt_truncates_processors(self, star5):
        start = np.zeros(5)
        start[0] = 1.0
        proc = np.array([0, 0, 1, 2, 3])
        sch = Schedule(star5, start, proc, p=40)
        text = sch.gantt(max_procs=2)
        assert "more processors" in text
