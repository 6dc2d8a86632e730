"""End-to-end integration tests: matrix -> tree -> schedules -> analysis.

These exercise the full pipeline the way the benchmark harness does, and
check the paper's qualitative findings on a miniature data set.
"""

import numpy as np
import pytest

from repro.analysis import Campaign, compute_table1_stats, figure_data, run_campaign
from repro.core import memory_lower_bound, simulate
from repro.core.validation import validate_schedule
from repro.matrices import (
    amalgamate,
    apply_ordering,
    grid2d,
    minimum_degree,
    symbolic_cholesky,
)
from repro.parallel import HEURISTICS, memory_bounded_schedule
from repro.sequential import liu_optimal_traversal, optimal_postorder
from repro.workloads import build_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale="tiny")


@pytest.fixture(scope="module")
def records(dataset):
    return run_campaign(
        dataset, Campaign(algorithms=tuple(HEURISTICS), processor_counts=(2, 8))
    )


class TestPipeline:
    def test_matrix_to_schedule(self):
        a = grid2d(10)
        sym = symbolic_cholesky(apply_ordering(a, minimum_degree(a)))
        tree = amalgamate(sym, 4).tree
        for name, fn in HEURISTICS.items():
            sch = fn(tree, 4)
            validate_schedule(sch)
            sim = simulate(sch)
            assert sim.makespan > 0 and sim.peak_memory > 0

    def test_dataset_complete(self, dataset):
        assert len(dataset) >= 40  # matrices x orderings x caps

    def test_records_complete(self, records, dataset):
        assert len(records) == len(dataset) * 2 * len(HEURISTICS)


class TestPaperFindings:
    """The paper's qualitative conclusions on the miniature campaign."""

    def test_parsubtrees_wins_memory(self, records):
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert stats["ParSubtrees"].best_memory == max(
            s.best_memory for s in stats.values()
        )

    def test_deepest_first_wins_makespan(self, records):
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert stats["ParDeepestFirst"].best_makespan == max(
            s.best_makespan for s in stats.values()
        )
        assert stats["ParDeepestFirst"].avg_dev_best_makespan <= 1.0

    def test_memory_focused_beats_makespan_focused_on_memory(self, records):
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert (
            stats["ParSubtrees"].avg_dev_seq_memory
            < stats["ParDeepestFirst"].avg_dev_seq_memory
        )

    def test_figure6_ratios_at_least_one(self, records):
        for series in figure_data(records, 6):
            assert np.all(series.x >= 1.0 - 1e-9)
            assert np.all(series.y >= 1.0 - 1e-9)

    def test_optim_improves_makespan_on_average(self, records):
        """ParSubtreesOptim trades memory for makespan vs ParSubtrees."""
        stats = {s.heuristic: s for s in compute_table1_stats(records)}
        assert (
            stats["ParSubtreesOptim"].avg_dev_best_makespan
            <= stats["ParSubtrees"].avg_dev_best_makespan + 1e-9
        )


class TestSequentialParallelConsistency:
    def test_memory_cap_pareto(self, dataset):
        """Sweeping the cap yields a monotone makespan trade-off curve."""
        tree = dataset[0].tree
        mseq = memory_lower_bound(tree)
        spans = []
        for factor in (1.0, 2.0, 4.0):
            sch = memory_bounded_schedule(tree, 8, factor * mseq)
            sim = simulate(sch)
            assert sim.peak_memory <= factor * mseq + 1e-6
            spans.append(sim.makespan)
        assert spans[0] >= spans[-1] - 1e-9

    def test_liu_vs_postorder_on_assembly_trees(self, dataset):
        """Paper 6.1: optimal postorder is near-optimal on assembly
        trees; Liu's exact algorithm never does worse."""
        for inst in dataset[:6]:
            po = optimal_postorder(inst.tree).peak_memory
            liu = liu_optimal_traversal(inst.tree).peak_memory
            assert liu <= po + 1e-9
            assert po <= 1.2 * liu  # near-optimality on realistic trees

    def test_parallel_memory_dominates_sequential(self, records):
        for r in records:
            assert r.memory >= r.memory_lb - 1e-6
