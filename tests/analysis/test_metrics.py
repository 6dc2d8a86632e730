"""Tests for the Table 1 statistics."""

import pytest

from repro.analysis.store import ScenarioRecord
from repro.analysis.metrics import _group_by_scenario, compute_table1_stats


def rec(tree, p, heuristic, makespan, memory, mem_lb=10.0, mk_lb=1.0):
    return ScenarioRecord(tree, 5, p, heuristic, makespan, memory, mem_lb, mk_lb)


class TestGrouping:
    def test_group_by_scenario(self):
        records = [
            rec("a", 2, "H1", 5, 20),
            rec("a", 2, "H2", 4, 30),
            rec("a", 4, "H1", 3, 25),
            rec("a", 4, "H2", 3, 25),
        ]
        groups = _group_by_scenario(records)
        assert set(groups) == {("a", 2), ("a", 4)}
        assert len(groups[("a", 2)]) == 2


class TestTable1Stats:
    def test_two_heuristics_one_scenario(self):
        records = [
            rec("a", 2, "H1", makespan=10.0, memory=20.0),
            rec("a", 2, "H2", makespan=8.0, memory=30.0),
        ]
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert stats["H1"].best_memory == 100.0
        assert stats["H2"].best_memory == 0.0
        assert stats["H2"].best_makespan == 100.0
        assert stats["H1"].best_makespan == 0.0
        # deviations: H1 memory 20 vs lb 10 -> 100%; H2 makespan best -> 0%
        assert stats["H1"].avg_dev_seq_memory == pytest.approx(100.0)
        assert stats["H2"].avg_dev_best_makespan == pytest.approx(0.0)
        assert stats["H1"].avg_dev_best_makespan == pytest.approx(25.0)

    def test_within_5_percent(self):
        records = [
            rec("a", 2, "H1", makespan=10.0, memory=20.0),
            rec("a", 2, "H2", makespan=10.4, memory=21.0),  # within 5%
            rec("a", 2, "H3", makespan=11.0, memory=22.0),  # not within 5%
        ]
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert stats["H2"].within5_memory == 100.0
        assert stats["H2"].within5_makespan == 100.0
        assert stats["H3"].within5_memory == 0.0
        assert stats["H3"].within5_makespan == 0.0

    def test_ties_count_for_all(self):
        records = [
            rec("a", 2, "H1", 10.0, 20.0),
            rec("a", 2, "H2", 10.0, 20.0),
        ]
        stats = compute_table1_stats(records)
        assert all(s.best_memory == 100.0 for s in stats)
        assert all(s.best_makespan == 100.0 for s in stats)

    def test_averaged_over_scenarios(self):
        records = [
            rec("a", 2, "H1", 10.0, 20.0),
            rec("a", 2, "H2", 20.0, 10.0),
            rec("b", 2, "H1", 20.0, 10.0),
            rec("b", 2, "H2", 10.0, 20.0),
        ]
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert stats["H1"].best_memory == 50.0
        assert stats["H1"].best_makespan == 50.0
        assert stats["H1"].scenarios == 2

    def test_incomplete_scenario_rejected(self):
        records = [
            rec("a", 2, "H1", 10.0, 20.0),
            rec("a", 2, "H2", 20.0, 10.0),
            rec("b", 2, "H1", 20.0, 10.0),
        ]
        with pytest.raises(ValueError, match="incomplete"):
            compute_table1_stats(records)
