"""Unit tests for the TaskTree data structure."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.tree import TaskTree
from tests.conftest import task_trees


class TestConstruction:
    def test_single_node(self):
        t = TaskTree.from_parents([-1])
        assert t.n == 1
        assert t.root == 0
        assert t.is_leaf(0)
        assert t.children(0).size == 0

    def test_chain(self, chain5):
        assert chain5.root == 0
        assert chain5.height() == 4
        assert chain5.n_leaves() == 1
        assert list(chain5.children(0)) == [1]

    def test_star(self, star5):
        assert star5.max_degree() == 4
        assert star5.n_leaves() == 4
        assert list(star5.leaves()) == [1, 2, 3, 4]

    def test_scalar_weight_broadcast(self):
        t = TaskTree.from_parents([-1, 0], w=2.5, f=3.0, sizes=1.0)
        assert np.all(t.w == 2.5)
        assert np.all(t.f == 3.0)
        assert np.all(t.sizes == 1.0)

    def test_pebble_game_weights(self):
        t = TaskTree.pebble_game([-1, 0, 0])
        assert np.all(t.w == 1.0)
        assert np.all(t.f == 1.0)
        assert np.all(t.sizes == 0.0)

    def test_rejects_no_root(self):
        with pytest.raises(ValueError, match="exactly one root"):
            TaskTree.from_parents([0, 1])  # a 2-cycle, no root

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError, match="exactly one root"):
            TaskTree.from_parents([-1, -1])

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError, match="own parent"):
            TaskTree.from_parents([-1, 1])

    def test_rejects_cycle(self):
        # 0 is root; 1 -> 2 -> 1 is a detached cycle.
        with pytest.raises(ValueError, match="cycle"):
            TaskTree.from_parents([-1, 2, 1])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskTree.from_parents([-1, 0], w=[-1.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["w", "f", "sizes"])
    def test_rejects_non_finite_weights(self, column, value):
        with pytest.raises(ValueError, match=f"finite, {column} is not"):
            TaskTree.from_parents([-1, 0, 0], **{column: [1.0, value, 1.0]})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            TaskTree(np.array([-1, 0]), np.ones(3), np.ones(2), np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one task"):
            TaskTree.from_parents([])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(ValueError, match="out of range"):
            TaskTree.from_parents([-1, 7])


class TestTraversalsAndAggregates:
    def test_postorder_children_before_parents(self, paper_example):
        order = paper_example.postorder()
        pos = {int(v): k for k, v in enumerate(order)}
        for i in range(paper_example.n):
            for j in paper_example.children(i):
                assert pos[j] < pos[i]

    def test_postorder_is_permutation(self, paper_example):
        order = paper_example.postorder()
        assert sorted(order) == list(range(paper_example.n))

    def test_depths(self, paper_example):
        d = paper_example.depths()
        assert d[0] == 0
        assert d[1] == d[2] == 1
        assert d[3] == d[4] == d[5] == d[6] == 2

    def test_weighted_depths_includes_own_weight(self, paper_example):
        wd = paper_example.weighted_depths()
        assert wd[0] == 3.0  # root: own w only
        assert wd[1] == 3.0 + 2.0
        assert wd[5] == 3.0 + 4.0 + 5.0

    def test_critical_path(self, paper_example):
        assert paper_example.critical_path() == 12.0  # 0 -> 2 -> 5

    def test_subtree_work_root_is_total(self, paper_example):
        W = paper_example.subtree_work()
        assert W[paper_example.root] == paper_example.total_work()
        assert W[1] == 2 + 1 + 2

    def test_subtree_sizes(self, paper_example):
        s = paper_example.subtree_sizes()
        assert s[paper_example.root] == 7
        assert s[1] == 3
        assert s[3] == 1

    def test_subtree_nodes(self, paper_example):
        nodes = set(paper_example.subtree_nodes(1))
        assert nodes == {1, 3, 4}

    def test_deep_chain_no_recursion_error(self):
        n = 50_000
        t = TaskTree.from_parents([-1] + list(range(n - 1)))
        assert t.height() == n - 1
        assert t.postorder()[0] == n - 1

    def test_processing_memory(self, paper_example):
        # node 1: children 3,4 with f=4,1; sizes=0; f=3
        assert paper_example.processing_memory(1) == 4 + 1 + 0 + 3
        # leaf 3: no inputs
        assert paper_example.processing_memory(3) == 0 + 4


class TestDerivedTrees:
    def test_subtree_extraction(self, paper_example):
        sub, nodes = paper_example.subtree(2)
        assert sub.n == 3
        assert sub.root == 0
        assert list(nodes) == [2, 6, 5] or set(nodes) == {2, 5, 6}
        # weights carried over
        orig = {int(o): k for k, o in enumerate(nodes)}
        assert sub.w[orig[5]] == paper_example.w[5]

    def test_subtree_of_root_is_whole_tree(self, paper_example):
        sub, nodes = paper_example.subtree(paper_example.root)
        assert sub.n == paper_example.n
        assert sub.total_work() == paper_example.total_work()

    def test_with_weights(self, star5):
        t = star5.with_weights(w=[5, 1, 1, 1, 1])
        assert t.w[0] == 5
        assert star5.w[0] == 1  # original untouched


class TestCSRRepresentation:
    """Invariants of the CSR children arrays and the derived caches.

    (Bit-level equivalence against the seed tuple-based implementation
    lives in ``tests/sequential/test_golden_seq.py``.)
    """

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_csr_matches_parent_vector(self, tree):
        ptr, idx = tree.child_ptr, tree.child_idx
        assert ptr[0] == 0 and ptr[-1] == tree.n - 1
        assert np.all(np.diff(ptr) >= 0)
        for p in range(tree.n):
            kids = idx[ptr[p] : ptr[p + 1]]
            assert np.all(tree.parent[kids] == p)
            assert np.all(np.diff(kids) > 0)  # ascending node order
        # every non-root node appears exactly once
        assert sorted(idx.tolist()) == sorted(
            i for i in range(tree.n) if i != tree.root
        )

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_postorder_positions_and_subtree_slices(self, tree):
        pos = tree.postorder_positions()
        order = tree.postorder()
        assert np.array_equal(pos[order], np.arange(tree.n))
        size = tree.subtree_sizes()
        for i in range(tree.n):
            nodes = tree.subtree_nodes(i)
            assert nodes[0] == i
            assert nodes.shape[0] == size[i]
            # a subtree is one contiguous postorder slice
            assert np.array_equal(np.sort(pos[nodes]), np.arange(pos[i] - size[i] + 1, pos[i] + 1))

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_aggregates(self, tree):
        ins = tree.input_sizes()
        for i in range(tree.n):
            assert ins[i] == sum(float(tree.f[j]) for j in tree.children(i))

    def test_root_cached_and_correct(self, paper_example):
        assert paper_example.root == 0
        assert paper_example._root == 0  # populated at construction

    def test_deep_chain_fallback_consistent(self):
        """The DFS fallback and the vectorized path agree on every cache."""
        n = 3000
        parent = [-1] + list(range(n - 1))
        deep = TaskTree.from_parents(parent)  # height n-1: fallback path
        assert deep._subtree_sizes is None  # sizes are lazy on this path
        assert np.array_equal(deep.postorder(), np.arange(n - 1, -1, -1))
        assert np.array_equal(deep.subtree_sizes(), np.arange(n, 0, -1))
        assert np.array_equal(deep.depths(), np.arange(n))

    def test_caches_are_read_only(self, paper_example):
        for arr in (
            paper_example.postorder(),
            paper_example.depths(),
            paper_example.child_ptr,
            paper_example.child_idx,
            paper_example.input_sizes(),
        ):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_subtree_sizes_returns_writable_copy(self, paper_example):
        s = paper_example.subtree_sizes()
        s[0] = -1  # must not corrupt the cache
        assert paper_example.subtree_sizes()[0] == paper_example.n


class TestPropertyInvariants:
    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_structure_invariants(self, tree):
        assert tree.subtree_sizes()[tree.root] == tree.n
        assert abs(tree.subtree_work()[tree.root] - tree.total_work()) < 1e-9
        assert tree.n_leaves() >= 1
        order = tree.postorder()
        assert sorted(order) == list(range(tree.n))
        assert order[-1] == tree.root

    @given(task_trees())
    @settings(max_examples=60, deadline=None)
    def test_critical_path_bounds(self, tree):
        cp = tree.critical_path()
        assert cp <= tree.total_work() + 1e-9
        assert cp >= tree.w.max() - 1e-9


def as_digraph(tree):
    """The tree as a networkx graph with child -> parent edges, built
    from the parent vector alone (an oracle independent of the CSR)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(tree.n))
    g.add_edges_from((i, int(p)) for i, p in enumerate(tree.parent) if p >= 0)
    return g


class TestAgainstNetworkx:
    """The structural accessors agree with networkx's graph algorithms."""

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_in_tree_children_and_leaves(self, tree):
        import networkx as nx

        g = as_digraph(tree)
        assert nx.is_arborescence(g.reverse())
        for i in range(tree.n):
            assert sorted(g.predecessors(i)) == list(tree.children(i))
            assert tree.degree(i) == g.in_degree(i)
        assert sorted(i for i in g if g.in_degree(i) == 0) == list(tree.leaves())
        assert tree.max_degree() == max(d for _, d in g.in_degree())

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_depths_are_path_lengths(self, tree):
        import networkx as nx

        g = as_digraph(tree)
        hops = nx.shortest_path_length(g, target=tree.root)
        assert [hops[i] for i in range(tree.n)] == list(tree.depths())
        assert tree.height() == max(hops.values())
        weighted = nx.shortest_path_length(
            g.reverse(), source=tree.root, weight=lambda u, v, _: tree.w[v]
        )
        for i in range(tree.n):
            assert tree.weighted_depths()[i] == weighted[i] + tree.w[tree.root]

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_subtree_nodes_are_ancestors_in_graph(self, tree):
        import networkx as nx

        g = as_digraph(tree)
        for i in range(tree.n):
            below = nx.ancestors(g, i) | {i}
            assert set(tree.subtree_nodes(i).tolist()) == below
            assert tree.subtree_sizes()[i] == len(below)
            assert tree.subtree_work()[i] == sum(tree.w[j] for j in below)

    @given(task_trees())
    @settings(max_examples=40, deadline=None)
    def test_postorder_is_topological(self, tree):
        g = as_digraph(tree)
        pos = tree.postorder_positions()
        assert all(pos[u] < pos[v] for u, v in g.edges)

    @given(task_trees(min_nodes=2))
    @settings(max_examples=40, deadline=None)
    def test_subtree_extraction_is_induced_subgraph(self, tree):
        import networkx as nx

        g = as_digraph(tree)
        i = int(tree.children(tree.root)[0])
        sub, nodes = tree.subtree(i)
        relabelled = nx.relabel_nodes(as_digraph(sub), dict(enumerate(nodes.tolist())))
        assert nx.utils.graphs_equal(relabelled, g.subgraph(nodes.tolist()))
        assert np.array_equal(sub.w, tree.w[nodes])
        assert np.array_equal(sub.f, tree.f[nodes])
        assert np.array_equal(sub.sizes, tree.sizes[nodes])
