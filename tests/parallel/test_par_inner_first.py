"""Tests for ParInnerFirst (Section 5.2)."""

from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.core.validation import validate_schedule
from repro.pebble.counterexamples import inner_first_memory_tree
from repro.sequential.postorder import optimal_postorder
from tests.conftest import task_trees


class TestSequentialEquivalence:
    @given(task_trees(min_nodes=1, max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_p1_reproduces_postorder_memory(self, tree):
        """With one processor the parallel postorder rules reduce to the
        reference sequential postorder, so the memory matches."""
        po = optimal_postorder(tree)
        sim = simulate(registry.run("ParInnerFirst", tree, 1))
        assert abs(sim.peak_memory - po.peak_memory) < 1e-9
        assert sim.makespan == tree.total_work()


class TestMakespanGuarantee:
    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_graham_bound(self, tree):
        W, CP = tree.total_work(), tree.critical_path()
        for p in (2, 4, 8):
            sch = registry.run("ParInnerFirst", tree, p)
            validate_schedule(sch)
            assert sch.makespan <= W / p + (1 - 1 / p) * CP + 1e-9


class TestMemoryBlowUp:
    def test_figure4_memory_growth(self):
        """Figure 4: memory grows like (k-1)(p-1)+1 while Mseq = p+1."""
        p = 4
        ratios = []
        for k in (4, 8, 16):
            t = inner_first_memory_tree(p, k)
            mseq = optimal_postorder(t).peak_memory
            assert mseq == p + 1
            sim = simulate(registry.run("ParInnerFirst", t, p))
            assert sim.peak_memory >= (k - 1) * (p - 1) + 1 - 1e-9
            ratios.append(sim.peak_memory / mseq)
        assert ratios[0] < ratios[1] < ratios[2]  # unbounded growth

    def test_inner_nodes_prioritized(self, star5):
        """Once the root is ready it runs before any pending leaf would."""
        sch = registry.run("ParInnerFirst", star5, 2)
        validate_schedule(sch)
        # star: leaves 2 by 2, then root
        assert sch.makespan == 3.0
