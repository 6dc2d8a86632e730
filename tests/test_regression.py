"""Golden regression tests: pinned outputs of the deterministic pipeline.

Everything in the library is seeded and deterministic, so a handful of
exact snapshots guards against silent behavioural drift (a changed
tie-break, a reordered heap, an off-by-one in the amalgamation) that the
property tests -- which only check invariants -- would let through.

If one of these fails after an intentional algorithm change, re-pin the
values *after* confirming the new behaviour is correct.
"""


from repro import registry
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.matrices import amalgamate, apply_ordering, grid2d, minimum_degree, symbolic_cholesky
from repro.parallel import HEURISTICS
from repro.sequential import liu_optimal_traversal, optimal_postorder
from repro.workloads import build_dataset


def heuristic_results(tree, p, validate=False):
    """The simulated result of each of the paper's four heuristics."""
    return {
        name: simulate(registry.run(name, tree, p), validate=validate)
        for name in HEURISTICS
    }


class TestSequentialGolden:
    def test_grid_postorder_peak(self):
        tree = amalgamate(symbolic_cholesky(grid2d(8)), 1).tree
        assert optimal_postorder(tree).peak_memory == 145.0

    def test_grid_liu_peak(self):
        tree = amalgamate(symbolic_cholesky(grid2d(8)), 1).tree
        assert liu_optimal_traversal(tree).peak_memory == 145.0

    def test_md_ordered_grid(self):
        a = grid2d(8)
        sym = symbolic_cholesky(apply_ordering(a, minimum_degree(a)))
        assert sym.factor_nnz == 359
        tree = amalgamate(sym, 4).tree
        assert tree.n == 40


class TestHeuristicGolden:
    def test_pebble_comb(self):
        """All four heuristics on a fixed comb tree, p=4."""
        from repro.pebble import deepest_first_memory_tree

        tree = deepest_first_memory_tree(8, 4)
        results = {
            name: (r.makespan, r.peak_memory)
            for name, r in heuristic_results(tree, 4, validate=True).items()
        }
        assert results["ParDeepestFirst"] == (19.0, 12.0)
        assert results["ParSubtrees"] == (38.0, 9.0)
        assert results["ParInnerFirst"] == (20.0, 9.0)
        # makespans: every heuristic within Graham of the LB
        W, CP = tree.total_work(), tree.critical_path()
        for name, (mk, _) in results.items():
            assert max(W / 4, CP) <= mk <= W

    def test_fixed_weighted_tree(self):
        tree = TaskTree.from_parents(
            [-1, 0, 0, 1, 1, 2, 2, 3, 3, 4],
            w=[3, 2, 4, 1, 2, 5, 1, 2, 2, 1],
            f=[0, 3, 2, 4, 1, 5, 2, 2, 1, 3],
            sizes=[1, 0, 2, 0, 1, 0, 3, 1, 0, 2],
        )
        results = heuristic_results(tree, 2, validate=True)
        pinned = {
            "ParSubtrees": (13.0, 19.0),
            "ParSubtreesOptim": (13.0, 19.0),
            "ParInnerFirst": (14.0, 19.0),
            "ParDeepestFirst": (14.0, 19.0),
        }
        for name, (mk, mem) in pinned.items():
            assert results[name].makespan == mk, name
            assert results[name].peak_memory == mem, name


class TestDatasetGolden:
    def test_tiny_dataset_fingerprint(self):
        instances = build_dataset(scale="tiny")
        assert len(instances) == 60
        sizes = [inst.tree.n for inst in instances[:5]]
        assert sizes == [64, 41, 31, 26, 64]

    def test_simulation_deterministic(self):
        instances = build_dataset(scale="tiny")[:2]
        a = [
            (r.makespan, r.peak_memory)
            for inst in instances
            for r in heuristic_results(inst.tree, 4).values()
        ]
        b = [
            (r.makespan, r.peak_memory)
            for inst in instances
            for r in heuristic_results(inst.tree, 4).values()
        ]
        assert a == b
