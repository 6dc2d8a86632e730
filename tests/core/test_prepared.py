"""Unit tests for :class:`repro.core.prepared.PreparedTree`.

The bundle's contract: everything it caches is a pure function of the
tree, derived once and shared by reference across runs, and the
prepared path is bit-identical to the unprepared path everywhere (the
cross-heuristic x kernel-vs-reference matrix lives in
``tests/core/test_backends.py``; these are the bundle-level unit
tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.core import PreparedTree, SchedulerEngine, as_prepared, tree_of
from repro.core.tree import TaskTree
from repro.parallel.memory_bounded import memory_bounded_schedule
from repro.parallel.par_deepest_first import par_deepest_first_rank
from repro.parallel.par_inner_first import par_inner_first_rank
from repro.core.bounds import makespan_lower_bound, memory_lower_bound
from repro.sequential.postorder import optimal_postorder
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(scope="module")
def tree() -> TaskTree:
    return random_weighted_tree(150, np.random.default_rng(42))


@pytest.fixture
def prepared(tree) -> PreparedTree:
    return PreparedTree(tree)


def same_schedule(a, b):
    return np.array_equal(a.start, b.start) and np.array_equal(a.proc, b.proc)


class TestConstruction:
    def test_wraps_task_tree_only(self):
        with pytest.raises(TypeError, match="TaskTree"):
            PreparedTree([1, 2, 3])

    def test_as_prepared_idempotent(self, tree):
        prepared = as_prepared(tree)
        assert isinstance(prepared, PreparedTree)
        assert as_prepared(prepared) is prepared
        assert prepared.tree is tree

    def test_tree_of_both_forms(self, tree, prepared):
        assert tree_of(tree) is tree
        assert tree_of(prepared) is tree

    def test_construction_is_lazy(self, prepared):
        # nothing derived yet: the bundle is cheap to mint per engine
        assert prepared._pending0 is None
        assert prepared._optimal is None
        assert prepared._ranks == {}


class TestCaches:
    def test_columns_match_tree(self, tree, prepared):
        assert np.array_equal(prepared.pending0, np.diff(tree.child_ptr))
        assert np.array_equal(prepared.alloc, tree.sizes + tree.f)
        assert np.array_equal(prepared.free_on_end, tree.completion_frees())
        assert not prepared.pending0.flags.writeable
        assert not prepared.alloc.flags.writeable

    def test_optimal_computed_once(self, tree, prepared):
        res = prepared.optimal()
        assert prepared.optimal() is res
        ref = optimal_postorder(tree)
        assert np.array_equal(res.order, ref.order)
        assert res.peak_memory == ref.peak_memory

    def test_sigma_rank_inverts_optimal_order(self, prepared):
        rank = prepared.sigma_rank()
        assert prepared.sigma_rank() is rank
        assert not rank.flags.writeable
        assert np.array_equal(
            rank[prepared.optimal().order], np.arange(prepared.n)
        )

    def test_weighted_depths_cached(self, tree, prepared):
        wd = prepared.weighted_depths()
        assert prepared.weighted_depths() is wd
        assert np.array_equal(wd, tree.weighted_depths())

    def test_lower_bounds_match_unprepared(self, tree, prepared):
        assert prepared.memory_lower_bound() == memory_lower_bound(tree)
        for p in (1, 2, 7):
            assert prepared.makespan_lower_bound(p) == makespan_lower_bound(tree, p)
        with pytest.raises(ValueError, match="positive"):
            prepared.makespan_lower_bound(0)

    def test_exactness_flags(self, tree, prepared):
        # random_weighted_tree has integral weights
        assert prepared.int_keys
        assert prepared.kernel_exact
        frac = PreparedTree(tree.with_weights(w=tree.w + 0.5))
        assert not frac.int_keys
        assert frac.kernel_exact

    def test_list_caches(self, tree, prepared):
        assert prepared.parent_list() is prepared.parent_list()
        assert prepared.parent_list() == tree.parent.tolist()
        assert prepared.w_list() == tree.w.astype(np.int64).tolist()
        assert prepared.alloc_list() == (tree.sizes + tree.f).tolist()
        assert prepared.free_list() == tree.completion_frees().tolist()


class TestRankCache:
    def test_rank_for_builds_once(self, prepared):
        calls = []

        def build():
            calls.append(1)
            return np.arange(prepared.n, dtype=np.int64)

        r1 = prepared.rank_for("spec", build)
        r2 = prepared.rank_for("spec", build)
        assert r1 is r2
        assert calls == [1]
        assert not r1.flags.writeable

    def test_byrank_only_for_owned_ranks(self, prepared):
        rank = prepared.rank_for("spec2", lambda: np.arange(prepared.n)[::-1].copy())
        byrank = prepared.byrank_for(rank)
        assert byrank is not None
        assert np.array_equal(byrank[rank], np.arange(prepared.n))
        foreign = np.arange(prepared.n, dtype=np.int64)
        assert prepared.byrank_for(foreign) is None

    def test_heuristic_ranks_cached_and_equal(self, tree, prepared):
        for fn, key in (
            (par_deepest_first_rank, "ParDeepestFirst"),
            (par_inner_first_rank, "ParInnerFirst"),
        ):
            got = fn(prepared)
            assert fn(prepared) is got  # cache hit
            assert key in prepared._ranks
            assert np.array_equal(got, fn(tree))


class TestEngineIntegration:
    def test_engine_accepts_prepared(self, tree, prepared):
        rank = par_deepest_first_rank(prepared)
        for p in (1, 3, 8):
            ref = SchedulerEngine(tree, p, np.asarray(rank)).run()
            got = SchedulerEngine(prepared, p, rank).run()
            assert same_schedule(got, ref)

    def test_engine_reuse_across_runs(self, prepared):
        # repeated runs against one bundle: every run must see the
        # pristine child counts
        rank = par_deepest_first_rank(prepared)
        first = SchedulerEngine(prepared, 4, rank).run()
        second = SchedulerEngine(prepared, 4, rank).run()
        assert same_schedule(first, second)

    def test_registry_run_matches_engine_on_bare_tree(self, tree, prepared):
        rank = par_inner_first_rank(tree)
        ref = SchedulerEngine(tree, 3, rank).run()
        got = registry.run("ParInnerFirst", prepared, 3)
        assert same_schedule(got, ref)

    def test_memory_bounded_prepared(self, tree, prepared):
        from repro.core import MemoryCapError

        res = optimal_postorder(tree)
        for mode in ("strict", "opportunistic"):
            for factor in (1.0, 2.0):
                cap = factor * res.peak_memory
                outcomes = []
                for target in (tree, prepared):
                    try:
                        s = memory_bounded_schedule(target, 4, cap, mode=mode)
                        outcomes.append(("ok", s.start.tobytes(), s.proc.tobytes()))
                    except MemoryCapError as exc:
                        # a tight opportunistic cap may be infeasible --
                        # then both paths must fail identically
                        outcomes.append(("err", str(exc)))
                assert outcomes[0] == outcomes[1], (mode, factor)

    def test_invalid_rank_still_rejected(self, prepared):
        bad = np.zeros(prepared.n, dtype=np.int64)
        with pytest.raises(ValueError, match="permutation"):
            SchedulerEngine(prepared, 2, bad)


class TestRegistryIntegration:
    @pytest.mark.parametrize("name", sorted(registry.names()))
    def test_every_algorithm_accepts_prepared(self, tree, prepared, name):
        for p in (1, 4):
            ref = registry.run(name, tree, p)
            got = registry.run(name, prepared, p)
            assert same_schedule(got, ref), (name, p)

    def test_p_sweep_reuses_preparation(self, tree, prepared):
        # after one run, a later p only pays the sweep: the optimal
        # order and the rank must not be rebuilt (identity-checked)
        registry.run("ParDeepestFirst", prepared, 2)
        res = prepared.optimal()
        rank = prepared._ranks["ParDeepestFirst"]
        registry.run("ParDeepestFirst", prepared, 8)
        registry.run("MemoryBounded", prepared, 8)
        assert prepared.optimal() is res
        assert prepared._ranks["ParDeepestFirst"] is rank


class TestScratchConcurrency:
    def test_concurrent_sweeps_share_one_prepared(self, tree, prepared):
        # many threads run the engine against ONE shared PreparedTree;
        # each kernel call counts down its own copy of the child counts,
        # so every result must be bit-identical to a serial run on a
        # fresh bundle
        from concurrent.futures import ThreadPoolExecutor

        grid = [
            (heur, p)
            for heur in ("ParDeepestFirst", "ParInnerFirst")
            for p in (1, 2, 3, 4, 6, 8)
        ]
        ref = {
            (heur, p): registry.run(heur, PreparedTree(tree), p)
            for heur, p in grid
        }

        def one(job):
            heur, p = job
            return job, registry.run(heur, prepared, p)

        with ThreadPoolExecutor(max_workers=8) as ex:
            for job, got in ex.map(one, grid * 4):
                assert same_schedule(got, ref[job])
        assert np.array_equal(prepared.pending0, np.diff(tree.child_ptr))

    def test_adopted_rank_outlives_its_caller(self, prepared):
        # threads racing on a cold rank cache may each adopt their own
        # array; the byrank cache is keyed by id, so a dropped loser must
        # stay alive or a later array at its address gets its inverse
        import weakref

        rank = np.arange(prepared.n, dtype=np.int64)[::-1].copy()
        prepared._adopt_rank(rank)
        alive = weakref.ref(rank)
        del rank
        assert alive() is not None
        assert np.array_equal(prepared.byrank_for(alive())[alive()], np.arange(prepared.n))
