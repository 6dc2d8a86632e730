"""Tests for ParSubtrees and ParSubtreesOptim (Section 5.1)."""

from hypothesis import given, settings

from repro import registry
from repro.core.prepared import PreparedTree
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule
from repro.parallel.par_subtrees import par_subtrees, par_subtrees_optim
from repro.parallel.split_subtrees import split_subtrees
from repro.sequential.liu import liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder
from tests.conftest import task_trees


class TestParSubtrees:
    def test_balanced_binary(self):
        t = TaskTree.from_parents([-1, 0, 0, 1, 1, 2, 2], w=1.0)
        sch = par_subtrees(t, 2)
        validate_schedule(sch)
        assert sch.makespan == 4.0  # two 3-node subtrees in parallel + root

    def test_makespan_matches_split_cost(self, paper_example):
        """The realised makespan equals Algorithm 2's cost prediction."""
        prepared = PreparedTree(paper_example)
        for p in (1, 2, 3):
            sch = par_subtrees(prepared, p)
            assert abs(sch.makespan - split_subtrees(prepared, p).cost) < 1e-9

    def test_fork_worst_case(self):
        """Figure 3: makespan p(k-1)+2 on the fork."""
        p, k = 3, 7
        t = TaskTree.from_parents([-1] + [0] * (p * k))
        sch = par_subtrees(t, p)
        assert sch.makespan == p * (k - 1) + 2

    def test_single_processor_is_sequential(self, paper_example):
        sch = par_subtrees(paper_example, 1)
        validate_schedule(sch)
        assert sch.makespan == paper_example.total_work()

    def test_custom_sequential_order(self, paper_example):
        sch = par_subtrees(
            paper_example, 2, sequential_order=lambda t: liu_optimal_traversal(t).order
        )
        validate_schedule(sch)


class TestMemoryGuarantee:
    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_p_plus_1_memory_bound(self, tree):
        """Section 5.1: peak <= (p+1) * Mseq (+ p max f slack for the
        retained parallel outputs, as in the proof)."""
        mseq = optimal_postorder(tree).peak_memory
        fmax = float(tree.f.max())
        for p in (2, 4):
            sim = simulate(par_subtrees(tree, p))
            assert sim.peak_memory <= (p + 1) * mseq + p * fmax + 1e-6

    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_valid_all_p(self, tree):
        for p in (1, 2, 5):
            validate_schedule(par_subtrees(tree, p))


class TestPaperBoundsGenerated:
    """The paper's bounds on generated trees of up to a few hundred
    nodes (integer weights, so every sum is exact)."""

    @given(task_trees(min_nodes=2, max_nodes=300))
    @settings(max_examples=30, deadline=None)
    def test_memory_and_makespan_bounds(self, tree):
        prepared = PreparedTree(tree)
        mseq = optimal_postorder(tree).peak_memory
        fmax = float(tree.f.max())
        for p in (2, 4, 8):
            lower = max(tree.total_work() / p, tree.critical_path())
            for name in ("ParSubtrees", "ParSubtreesOptim", "MemoryAwareSubtrees"):
                sim = simulate(registry.run(name, prepared, p))
                assert sim.makespan >= lower, (name, p)
                if name == "ParSubtrees":
                    assert sim.peak_memory <= (p + 1) * mseq + p * fmax + 1e-6


class TestParSubtreesOptim:
    def test_improves_fork_makespan(self):
        """On the fork, LPT allocation of all subtrees restores k+1."""
        p, k = 3, 7
        t = TaskTree.from_parents([-1] + [0] * (p * k))
        plain = par_subtrees(t, p).makespan
        optim = par_subtrees_optim(t, p).makespan
        assert optim < plain
        assert optim == k + 1  # pk/p leaves per processor + root

    @given(task_trees(min_nodes=2, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_valid_and_complete(self, tree):
        for p in (2, 4):
            sch = par_subtrees_optim(tree, p)
            validate_schedule(sch)

    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_never_much_worse_than_plain(self, tree):
        """LPT over the same splitting cannot exceed the plain two-phase
        makespan (it only moves surplus subtrees off the critical
        sequential phase)."""
        prepared = PreparedTree(tree)
        for p in (2, 4):
            plain = par_subtrees(prepared, p).makespan
            optim = par_subtrees_optim(prepared, p).makespan
            assert optim <= plain + 1e-9
