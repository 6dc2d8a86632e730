"""Tests for Liu's exact optimal traversal: certified against brute force."""

from hypothesis import given, settings

from repro.core.tree import TaskTree
from repro.sequential.liu import Segment, hill_valley_segments, liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder
from repro.sequential.traversal import check_topological, traversal_peak_memory
from tests.conftest import task_trees
from tests.sequential.bruteforce import best_traversal_bruteforce


class TestHillValleySegments:
    def test_single_leaf(self):
        t = TaskTree.from_parents([-1], f=3.0, sizes=2.0)
        segs = hill_valley_segments(t, [0])
        assert len(segs) == 1
        assert segs[0].hill == 5.0
        assert segs[0].valley == 3.0
        assert segs[0].drop == 2.0

    def test_segments_cover_order(self, paper_example):
        order = list(paper_example.postorder())
        segs = hill_valley_segments(paper_example, order)
        flattened = [n for s in segs for n in s.nodes]
        assert flattened == order

    def test_invariants_hills_decrease_valleys_increase(self, paper_example):
        segs = hill_valley_segments(paper_example, list(paper_example.postorder()))
        hills = [s.hill for s in segs]
        valleys = [s.valley for s in segs]
        assert hills == sorted(hills, reverse=True)
        assert valleys == sorted(valleys)
        drops = [s.drop for s in segs]
        assert drops == sorted(drops, reverse=True)

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_invariants_random(self, tree):
        segs = hill_valley_segments(tree, list(tree.postorder()))
        for a, b in zip(segs[:-1], segs[1:]):
            assert a.hill >= b.hill - 1e-9
            assert a.valley <= b.valley + 1e-9
            assert a.drop >= b.drop - 1e-9
        for s in segs:
            assert s.hill >= s.valley - 1e-9
            assert isinstance(s, Segment)


class TestKnownInstances:
    def test_chain(self, chain5):
        assert liu_optimal_traversal(chain5).peak_memory == 2.0

    def test_interleaving_beats_postorder(self):
        """The classic case where the optimal traversal is not a postorder.

        Two subtrees whose partial processing can be interleaved so that
        large temporary files never coexist.
        """
        #        0
        #      /   \
        #     1     2
        #     |     |
        #     3     4
        # Child chains with a huge mid-file: process 3 (peak 10, leaves
        # f=1), then 4 (1+10), then 1, then 2 -- interleaving chains
        # beats any postorder when sizes are right.
        t = TaskTree.from_parents(
            [-1, 0, 0, 1, 2],
            w=1.0,
            f=[1.0, 1.0, 1.0, 10.0, 10.0],
            sizes=0.0,
        )
        po = optimal_postorder(t).peak_memory
        liu = liu_optimal_traversal(t).peak_memory
        assert liu <= po
        bf = best_traversal_bruteforce(t)
        assert abs(liu - bf.peak_memory) < 1e-9

    def test_pebble_star(self, star5):
        assert liu_optimal_traversal(star5).peak_memory == 5.0


class TestOptimality:
    @given(task_trees(max_nodes=9))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_all_orders(self, tree):
        """Liu's algorithm equals exhaustive search over all topological
        orders -- the strongest possible certificate."""
        liu = liu_optimal_traversal(tree)
        bf = best_traversal_bruteforce(tree)
        assert abs(liu.peak_memory - bf.peak_memory) < 1e-9

    @given(task_trees())
    @settings(max_examples=50, deadline=None)
    def test_never_worse_than_postorder(self, tree):
        assert (
            liu_optimal_traversal(tree).peak_memory
            <= optimal_postorder(tree).peak_memory + 1e-9
        )

    @given(task_trees())
    @settings(max_examples=50, deadline=None)
    def test_order_is_topological_and_realizes_peak(self, tree):
        res = liu_optimal_traversal(tree)
        check_topological(tree, res.order)
        assert abs(traversal_peak_memory(tree, res.order) - res.peak_memory) < 1e-9

    def test_deep_tree_iterative(self):
        n = 5_000
        t = TaskTree.from_parents([-1] + list(range(n - 1)), f=1.0)
        res = liu_optimal_traversal(t)
        assert res.peak_memory == 2.0
        assert len(res.order) == n
