"""Tests for the Figure 2-5 constructions against the paper's formulas."""

import pytest

from repro import registry
from repro.core.simulator import simulate
from repro.parallel import par_subtrees
from repro.pebble.counterexamples import (
    deepest_first_memory_tree,
    fork_tree,
    inapprox_ratio_lower_bound,
    inapproximability_tree,
    inner_first_memory_tree,
)
from repro.sequential.liu import liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder


class TestFigure2:
    @pytest.mark.parametrize("n,delta", [(2, 3), (3, 4), (2, 5), (4, 3)])
    def test_closed_forms(self, n, delta):
        f2 = inapproximability_tree(n, delta)
        t = f2.tree
        # critical path = delta + 2 (unit weights)
        assert t.critical_path() == delta + 2
        # descendants of each cp_1^i: (delta^2 + 5 delta - 4) / 2
        sizes = t.subtree_sizes()
        for c in t.children(t.root):
            assert sizes[c] - 1 == f2.descendants_per_subtree

    @pytest.mark.parametrize("n,delta", [(2, 3), (3, 4)])
    def test_optimal_memory_n_plus_delta(self, n, delta):
        """Liu's exact algorithm achieves the paper's optimal n + delta."""
        f2 = inapproximability_tree(n, delta)
        liu = liu_optimal_traversal(f2.tree)
        assert liu.peak_memory == n + delta

    def test_lower_bound_diverges(self):
        """With delta = n^2 the memory-ratio lower bound diverges, which
        is the contradiction at the heart of Theorem 2."""
        ns = (3, 6, 12, 24, 96)
        values = [inapprox_ratio_lower_bound(n, n * n, alpha=3.0) for n in ns]
        assert all(b > a for a, b in zip(values, values[1:]))
        # lb ~ n/alpha asymptotically: unbounded in n
        assert values[-1] > 25

    def test_rejects_small_delta(self):
        with pytest.raises(ValueError):
            inapproximability_tree(2, 1)


class TestFigure3:
    @pytest.mark.parametrize("p,k", [(2, 4), (3, 5), (4, 8)])
    def test_par_subtrees_worst_case(self, p, k):
        t = fork_tree(p, k)
        sim = simulate(par_subtrees(t, p))
        assert sim.makespan == p * (k - 1) + 2

    def test_ratio_tends_to_p(self):
        p = 4
        ratios = [
            simulate(par_subtrees(fork_tree(p, k), p)).makespan / (k + 1)
            for k in (4, 16, 64)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.9 * p


class TestFigure4:
    @pytest.mark.parametrize("p,k", [(2, 4), (4, 6), (8, 4)])
    def test_seq_memory_is_p_plus_1(self, p, k):
        t = inner_first_memory_tree(p, k)
        assert optimal_postorder(t).peak_memory == p + 1
        # longest chain has length 2k nodes
        assert t.height() + 1 == 2 * k

    @pytest.mark.parametrize("p,k", [(2, 6), (4, 6)])
    def test_inner_first_blow_up(self, p, k):
        t = inner_first_memory_tree(p, k)
        sim = simulate(registry.run("ParInnerFirst", t, p))
        assert sim.peak_memory >= (k - 1) * (p - 1) + 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            inner_first_memory_tree(1, 4)
        with pytest.raises(ValueError):
            inner_first_memory_tree(4, 1)


class TestFigure5:
    @pytest.mark.parametrize("chains", [2, 4, 8])
    def test_seq_memory_is_3(self, chains):
        t = deepest_first_memory_tree(chains, 4)
        assert optimal_postorder(t).peak_memory == 3.0

    def test_all_leaves_equally_deep(self):
        t = deepest_first_memory_tree(8, 5)
        depths = t.depths()
        leaf_depths = {int(depths[leaf]) for leaf in t.leaves()}
        assert len(leaf_depths) == 1

    def test_deepest_first_blow_up(self):
        for chains in (4, 8, 16):
            t = deepest_first_memory_tree(chains, 5)
            sim = simulate(registry.run("ParDeepestFirst", t, chains))
            assert sim.peak_memory >= chains

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            deepest_first_memory_tree(1, 5)
        with pytest.raises(ValueError):
            deepest_first_memory_tree(4, 0)
