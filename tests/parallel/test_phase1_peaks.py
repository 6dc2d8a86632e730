"""The compiled phase-1 peaks of MemoryAwareSubtrees against a numpy oracle.

``_ckernel.phase1_peaks`` sorts the events of every candidate subtree
once and keeps one running level per concurrency level ``k``; entry
``k - 1`` is the highest level of the level-``k`` schedule at instants
strictly before ``T1(k)``, the end of its concurrent phase. The oracle
below recomputes it the slow way: the events of the candidates sorted
as the simulator's reference sorts them, filtered to the ``k`` groups,
``np.cumsum``, the last level per instant, the instants before
``T1(k)``. Both must agree value for value, and both must equal the
prefix of the memory profile of the schedule MemoryAwareSubtrees builds
for that level.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernel
from repro.core.prepared import PreparedTree
from repro.core.simulator import memory_profile
from repro.core.tree import TaskTree
from repro.parallel.memory_aware_subtrees import _build, _phase1_peaks
from repro.workloads.synthetic import random_weighted_tree
from tests.conftest import storm_trees, task_trees

pytestmark = pytest.mark.skipif(
    not _ckernel.available(), reason="the compiled library does not build here"
)


def candidate_times(tree: TaskTree, orders: list[np.ndarray]):
    """Start times of the candidates' tasks (``_pack_schedule``'s cumsum
    from 0) and ``T1(k)`` for ``k = 1..q``, Python's running ``max``."""
    start = np.full(tree.n, np.nan)
    t1, ends = 0.0, []
    for order in orders:
        ticks = np.cumsum(np.concatenate(([0.0], tree.w[order])))
        start[order] = ticks[:-1]
        t1 = max(t1, float(ticks[-1]))
        ends.append(t1)
    return start, ends


def oracle_peaks(tree: TaskTree, orders: list[np.ndarray]) -> np.ndarray:
    """Entry ``k - 1``: the highest level of the level-``k`` profile
    before ``T1(k)``, ``-inf`` without such an instant."""
    start, t1 = candidate_times(tree, orders)
    group = np.full(tree.n, -1)
    for g, order in enumerate(orders):
        group[order] = g
    nodes = np.flatnonzero(group >= 0)  # ascending node index
    times = np.concatenate([start[nodes] + tree.w[nodes], start[nodes]])
    phases = np.concatenate([np.zeros(len(nodes)), np.ones(len(nodes))])
    deltas = np.concatenate(
        [-tree.completion_frees()[nodes], tree.start_allocs()[nodes]]
    )
    groups = np.concatenate([group[nodes], group[nodes]])
    order = np.lexsort((phases, times))
    times, deltas, groups = times[order], deltas[order], groups[order]
    peaks = np.full(len(orders), -np.inf)
    for k in range(1, len(orders) + 1):
        mask = groups < k
        kt, levels = times[mask], np.cumsum(deltas[mask])
        last = np.ones(len(kt), dtype=bool)
        last[:-1] = kt[1:] != kt[:-1]
        before = last & (kt < t1[k - 1])
        if before.any():
            peaks[k - 1] = levels[before].max()
    return peaks


def compiled_peaks(tree: TaskTree, orders: list[np.ndarray]):
    group_end = np.cumsum([len(o) for o in orders], dtype=np.int64)
    return _ckernel.phase1_peaks(
        np.concatenate(orders).astype(np.int64),
        group_end,
        tree.w,
        tree.start_allocs(),
        tree.completion_frees(),
    )


def heaviest_orders(prepared: PreparedTree, p: int) -> list[np.ndarray]:
    """MemoryAwareSubtrees' candidates for ``p``: the orders of the
    heaviest frontier roots, heaviest first."""
    work = prepared.subtree_work()
    roots = sorted(
        prepared.split(p).frontier_roots, key=lambda r: float(work[r]), reverse=True
    )
    return [prepared.subtree_order(r) for r in roots[:p]]


def profile_prefix_peak(schedule, t1: float) -> float:
    """The highest level of ``schedule``'s memory profile before ``t1``."""
    times, levels = memory_profile(schedule)
    before = times < t1
    return float(levels[before].max()) if before.any() else -np.inf


def assert_matches_oracle(tree: TaskTree, orders: list[np.ndarray]) -> None:
    got = compiled_peaks(tree, orders)
    want = oracle_peaks(tree, orders)
    assert got is not None
    assert np.array_equal(got, want), (got, want)


def assert_prefix_of_schedules(tree: TaskTree, p: int) -> None:
    """The export's entries are the prefixes of the built schedules."""
    prepared = PreparedTree(tree)
    orders = heaviest_orders(prepared, p)
    if not orders:
        return
    got = _phase1_peaks(prepared, orders)
    assert got is not None
    _, t1 = candidate_times(tree, orders)
    for k in range(1, len(orders) + 1):
        schedule = _build(prepared, p, orders[:k], prepared.optimal().order)
        assert got[k - 1] == profile_prefix_peak(schedule, t1[k - 1]), k


class TestAgainstOracle:
    @given(storm_trees(max_nodes=80), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_storm_trees(self, tree, p):
        """Equal instants everywhere: ties between frees and allocations
        of several candidates, signed zeros, zero durations."""
        orders = heaviest_orders(PreparedTree(tree), p)
        assert_matches_oracle(tree, orders)

    @given(task_trees(min_nodes=1, max_nodes=60, min_w=0, max_w=2), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_zero_durations(self, tree, p):
        assert_matches_oracle(tree, heaviest_orders(PreparedTree(tree), p))
        assert_prefix_of_schedules(tree, p)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_groups(self, data):
        """Any disjoint node groups in any order, not only subtrees."""
        tree = data.draw(task_trees(min_nodes=1, max_nodes=50, min_w=0, max_w=3))
        perm = data.draw(st.permutations(range(tree.n)))
        cuts = sorted(data.draw(st.lists(st.integers(0, tree.n), max_size=6)))
        bounds = [0, *cuts, data.draw(st.integers(cuts[-1] if cuts else 0, tree.n))]
        orders = [
            np.asarray(perm[a:b], dtype=np.int64)
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]
        if orders:
            assert_matches_oracle(tree, orders)

    @pytest.mark.parametrize("p", [3, 8, 16])
    def test_large_random_tree(self, p):
        rng = np.random.default_rng(7)
        base = random_weighted_tree(3000, rng)
        tree = base.with_weights(w=np.where(rng.random(base.n) < 0.2, 0.0, base.w))
        assert_matches_oracle(tree, heaviest_orders(PreparedTree(tree), p))
        assert_prefix_of_schedules(tree, p)

    def test_events_at_t1_are_excluded(self):
        """Zero-duration tasks that start and end exactly at T1: the
        instant T1 belongs to the sequential phase, so the export leaves
        it out even where its level is the highest so far."""
        # root 0; candidate 1 (w 4) and candidate 2 (w 4) whose last task,
        # its root, has zero duration and a large output
        parent = [-1, 0, 0, 2]
        tree = TaskTree.from_parents(
            parent, w=[1, 4, 0, 4], f=[0, 1, 50, 1], sizes=[0, 0, 0, 0]
        )
        orders = [np.asarray([1]), np.asarray([3, 2])]
        start, t1 = candidate_times(tree, orders)
        assert start[2] == t1[1] == 4.0  # task 2 runs at T1(2)
        got = compiled_peaks(tree, orders)
        assert got[1] == 2.0  # tasks 1 and 3 running; not task 2's 50
        assert_matches_oracle(tree, orders)

    def test_no_instant_before_t1(self):
        """Every candidate task of zero duration: T1 = 0, no instant."""
        tree = TaskTree.from_parents([-1, 0, 0], w=0.0, f=1.0, sizes=0.0)
        got = compiled_peaks(tree, [np.asarray([1]), np.asarray([2])])
        assert np.all(got == -np.inf)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "nodes, group_end",
        [
            ([1, 1], [1, 2]),  # a repeated node
            ([1, 7], [1, 2]),  # out of range
            ([1, -1], [1, 2]),
            ([1, 2], [2, 1]),  # groups out of order
            ([1, 2], [1, 1]),  # not every node in a group
            ([1, 2], [1, 3]),
        ],
    )
    def test_declines(self, nodes, group_end):
        tree = TaskTree.from_parents([-1, 0, 0], w=1.0)
        got = _ckernel.phase1_peaks(
            np.asarray(nodes, dtype=np.int64),
            np.asarray(group_end, dtype=np.int64),
            tree.w,
            tree.start_allocs(),
            tree.completion_frees(),
        )
        assert got is None

    def test_wrong_dtype_raises(self):
        tree = TaskTree.from_parents([-1, 0, 0], w=1.0)
        with pytest.raises(TypeError, match="nodes"):
            _ckernel.phase1_peaks(
                np.asarray([1, 2], dtype=np.int32),
                np.asarray([2], dtype=np.int64),
                tree.w,
                tree.start_allocs(),
                tree.completion_frees(),
            )
