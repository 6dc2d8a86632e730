"""Tests for the ablation heuristic variants."""

from hypothesis import given, settings

from repro import registry
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.core.validation import validate_schedule
from tests.conftest import task_trees

VARIANT_NAMES = ("ParInnerFirst/naiveO", "ParDeepestFirst/hops")


class TestValidity:
    @given(task_trees(min_nodes=2, max_nodes=30))
    @settings(max_examples=25, deadline=None)
    def test_variants_emit_valid_schedules(self, tree):
        for name in VARIANT_NAMES:
            for p in (1, 3):
                sch = registry.run(name, tree, p)
                validate_schedule(sch)
                assert sch.makespan <= tree.total_work() + 1e-9


class TestAblationEffects:
    def test_naive_order_hurts_memory(self):
        """On a tree where the optimal postorder matters, the naive
        variant uses at least as much memory at p=1."""
        # big-peak subtree must go first (see sequential postorder tests)
        t = TaskTree.from_parents(
            [-1, 0, 0, 2, 2], w=1.0, f=[1, 5, 1, 6, 6], sizes=0.0
        )
        good = simulate(registry.run("ParInnerFirst", t, 1)).peak_memory
        naive = simulate(registry.run("ParInnerFirst/naiveO", t, 1)).peak_memory
        assert naive >= good

    def test_hop_depth_misses_critical_path(self):
        """A heavy shallow branch must start early; hop-depth ignores
        that and yields a strictly worse makespan."""
        # branch A: chain of 2 light nodes (hop-deep), branch B: one
        # heavy leaf (w=10, hop-shallow but critical).
        t = TaskTree.from_parents([-1, 0, 1, 2, 0], w=[1, 1, 1, 1, 10])
        weighted = registry.run("ParDeepestFirst", t, 1)
        hops = registry.run("ParDeepestFirst/hops", t, 1)
        # with one processor both have makespan = W; compare start of the
        # critical task instead
        assert weighted.start[4] <= hops.start[4]

    def test_hop_variant_leaf_tie_break_regression(self):
        """Pin the fixed inner-node boost of ``ParDeepestFirst/hops``.

        A historical revision computed the tie-break term as
        ``- (0 if tree.is_leaf(i) else 0)`` -- always zero -- so a ready
        inner node at hop depth d lost to any leaf at depth d+1. With
        the intended boost, inner node 3 (depth 1) runs *before* leaf 2
        (depth 2) once its children complete. The full schedule on this
        heterogeneous tree is pinned for both p=1 and p=2.
        """
        t = TaskTree.from_parents(
            [-1, 0, 1, 0, 3, 3],
            w=[2, 3, 1, 2, 4, 1],
            f=[1, 2, 3, 1, 2, 2],
            sizes=[0, 1, 0, 2, 0, 1],
        )
        serial = registry.run("ParDeepestFirst/hops", t, 1)
        # inner node 3 preempts the deeper leaf 2 (the buggy priority
        # ran 2 first); leaf order among equal keys follows sigma.
        assert serial.start[3] < serial.start[2]
        assert serial.start.tolist() == [11.0, 8.0, 7.0, 5.0, 1.0, 0.0]
        two_procs = registry.run("ParDeepestFirst/hops", t, 2)
        assert two_procs.start.tolist() == [6.0, 2.0, 1.0, 4.0, 0.0, 0.0]
        assert two_procs.proc.tolist() == [1, 0, 0, 1, 1, 0]

    @given(task_trees(min_nodes=2, max_nodes=25, max_w=9))
    @settings(max_examples=20, deadline=None)
    def test_weighted_depth_never_worse_on_average(self, tree):
        """Graham's bound still holds for the hop variant (it is a list
        schedule), even when it loses to the weighted one."""
        W, CP = tree.total_work(), tree.critical_path()
        for p in (2, 4):
            sch = registry.run("ParDeepestFirst/hops", tree, p)
            assert sch.makespan <= W / p + (1 - 1 / p) * CP + 1e-9
