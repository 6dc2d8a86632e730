"""Golden equivalence: the unified engine reproduces the seed schedulers.

The refactor that introduced :mod:`repro.core.engine` replaced two
hand-rolled heapq event loops (``parallel/list_scheduling.py`` and
``parallel/memory_bounded.py``) and the per-node priority closures of
every list heuristic. This suite pins the refactor: the *seed*
implementations are embedded below verbatim, and for random trees
(n <= 200, p in {1, 2, 4, 8}) every registry algorithm must produce a
schedule with identical makespan and peak memory -- for the list-based
schedulers the start times and processor assignments must match bit for
bit.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro import registry
from repro.core.schedule import Schedule
from repro.core.simulator import simulate
from repro.core.tree import NO_PARENT
from repro.parallel.memory_bounded import MemoryCapError, memory_bounded_schedule
from repro.sequential.postorder import optimal_postorder
from repro.workloads.synthetic import random_weighted_tree

PROCESSOR_COUNTS = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# seed implementations (verbatim from the pre-refactor modules)
# ----------------------------------------------------------------------
def seed_list_schedule(tree, p, priority):
    if p < 1:
        raise ValueError("p must be positive")
    n = tree.n
    start = np.full(n, -1.0, dtype=np.float64)
    proc = np.full(n, -1, dtype=np.int64)
    pending_children = np.array([tree.degree(i) for i in range(n)], dtype=np.int64)

    ready = []
    for i in range(n):
        if pending_children[i] == 0:
            heapq.heappush(ready, (priority(i), i))

    free_procs = list(range(p - 1, -1, -1))
    events = []
    now = 0.0
    scheduled = 0
    while scheduled < n or events:
        while free_procs and ready:
            _, node = heapq.heappop(ready)
            q = free_procs.pop()
            start[node] = now
            proc[node] = q
            heapq.heappush(events, (now + float(tree.w[node]), node))
            scheduled += 1
        if not events:
            if scheduled < n:
                raise RuntimeError("deadlock: tasks left but no event pending")
            break
        now, node = heapq.heappop(events)
        finished = [node]
        while events and events[0][0] == now:
            finished.append(heapq.heappop(events)[1])
        for node in finished:
            free_procs.append(int(proc[node]))
            parent = int(tree.parent[node])
            if parent != NO_PARENT:
                pending_children[parent] -= 1
                if pending_children[parent] == 0:
                    heapq.heappush(ready, (priority(parent), parent))
    return Schedule(tree, start, proc, p)


def seed_memory_bounded_schedule(tree, p, cap, order=None, mode="strict"):
    if mode not in ("strict", "opportunistic"):
        raise ValueError(f"unknown mode {mode!r}")
    if p < 1:
        raise ValueError("p must be positive")
    if order is None:
        order = optimal_postorder(tree).order
    order = np.asarray(order, dtype=np.int64)
    n = tree.n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    start = np.full(n, -1.0, dtype=np.float64)
    proc = np.full(n, -1, dtype=np.int64)
    pending_children = np.array([tree.degree(i) for i in range(n)], dtype=np.int64)
    alloc = tree.sizes + tree.f
    free_on_end = tree.sizes.copy()
    for i in range(n):
        for j in tree.children(i):
            free_on_end[i] += tree.f[j]

    ready = []
    for i in range(n):
        if pending_children[i] == 0:
            heapq.heappush(ready, (int(rank[i]), i))

    free_procs = list(range(p - 1, -1, -1))
    events = []
    mem = 0.0
    now = 0.0
    started = 0
    next_sigma = 0

    def try_start():
        nonlocal mem, started, next_sigma
        while free_procs and ready:
            if mode == "strict":
                node = int(order[next_sigma])
                if pending_children[node] > 0 or mem + alloc[node] > cap + 1e-9:
                    return
                popped = heapq.heappop(ready)
                assert popped[1] == node
            else:
                skipped = []
                node = -1
                while ready:
                    r, cand = heapq.heappop(ready)
                    if mem + alloc[cand] <= cap + 1e-9:
                        node = cand
                        break
                    skipped.append((r, cand))
                for item in skipped:
                    heapq.heappush(ready, item)
                if node < 0:
                    return
            q = free_procs.pop()
            start[node] = now
            proc[node] = q
            mem += float(alloc[node])
            heapq.heappush(events, (now + float(tree.w[node]), node))
            started += 1
            while next_sigma < n and start[int(order[next_sigma])] >= 0:
                next_sigma += 1

    try_start()
    while started < n or events:
        if not events:
            node = int(order[next_sigma])
            raise MemoryCapError(f"cap {cap:g} infeasible: task {node}")
        now, node = heapq.heappop(events)
        finished = [node]
        while events and events[0][0] == now:
            finished.append(heapq.heappop(events)[1])
        for node in finished:
            free_procs.append(int(proc[node]))
            mem -= float(free_on_end[node])
            parent = int(tree.parent[node])
            if parent != NO_PARENT:
                pending_children[parent] -= 1
                if pending_children[parent] == 0:
                    heapq.heappush(ready, (int(rank[parent]), parent))
        try_start()
    return Schedule(tree, start, proc, p)


# ----------------------------------------------------------------------
# seed priority closures (verbatim from the pre-refactor heuristics)
# ----------------------------------------------------------------------
def seed_postorder_ranks(tree, order=None):
    """Rank of every node in ``order`` (default: the optimal postorder)."""
    if order is None:
        order = optimal_postorder(tree).order
    ranks = np.empty(tree.n, dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(tree.n)
    return ranks


def seed_par_inner_first(tree, p, order=None):
    ranks = seed_postorder_ranks(tree, order)
    depth = tree.depths()

    def priority(i):
        if tree.is_leaf(i):
            return (1, int(ranks[i]), i)
        return (0, -int(depth[i]), int(ranks[i]))

    return seed_list_schedule(tree, p, priority)


def seed_par_deepest_first(tree, p, order=None):
    ranks = seed_postorder_ranks(tree, order)
    wdepth = tree.weighted_depths()

    def priority(i):
        return (-float(wdepth[i]), 1 if tree.is_leaf(i) else 0, int(ranks[i]))

    return seed_list_schedule(tree, p, priority)


def seed_par_inner_first_naive_order(tree, p):
    return seed_par_inner_first(tree, p, tree.postorder())


def seed_par_hop_deepest_first(tree, p):
    """Hop-depth variant *with the intended leaf tie-break* (the seed's
    ``- (0 if leaf else 0)`` term was a no-op; the closure below encodes
    the fixed semantics the vectorized variant must reproduce)."""
    ranks = seed_postorder_ranks(tree)
    depth = tree.depths()

    def priority(i):
        return (
            -int(depth[i]) - (0 if tree.is_leaf(i) else 1),
            1 if tree.is_leaf(i) else 0,
            int(ranks[i]),
        )

    return seed_list_schedule(tree, p, priority)


SEED_LIST_HEURISTICS = {
    "ParInnerFirst": seed_par_inner_first,
    "ParDeepestFirst": seed_par_deepest_first,
    "ParInnerFirst/naiveO": seed_par_inner_first_naive_order,
    "ParDeepestFirst/hops": seed_par_hop_deepest_first,
}


def random_trees():
    """A deterministic spread of tree shapes, n <= 200."""
    rng = np.random.default_rng(20130520)
    trees = []
    for n, bias in [(1, 0.0), (7, 0.0), (40, 0.0), (80, 4.0), (120, -4.0), (200, 0.0)]:
        trees.append(random_weighted_tree(n, rng, bias=bias))
    # zero execution files (Pebble-Game regime) and duplicate weights
    trees.append(random_weighted_tree(60, rng, max_w=2, max_f=1, max_size=0))
    # fractional durations: exercises the engine's float event-key path
    # (integral weights take an exact integer-encoded fast path)
    frac = random_weighted_tree(80, rng)
    trees.append(frac.with_weights(w=frac.w + rng.uniform(0.0, 1.0, frac.n)))
    return trees


@pytest.fixture(scope="module", params=range(8))
def tree(request):
    return random_trees()[request.param]


def assert_same_schedule(new: Schedule, ref: Schedule):
    assert np.array_equal(new.start, ref.start)
    assert np.array_equal(new.proc, ref.proc)
    assert new.p == ref.p


class TestListHeuristicEquivalence:
    @pytest.mark.parametrize("name", sorted(SEED_LIST_HEURISTICS))
    def test_bit_identical_schedules(self, tree, name):
        """Vectorized-rank heuristics equal the seed closure path exactly."""
        seed_fn = SEED_LIST_HEURISTICS[name]
        for p in PROCESSOR_COUNTS:
            assert_same_schedule(registry.run(name, tree, p), seed_fn(tree, p))


class TestMemoryBoundedEquivalence:
    @pytest.mark.parametrize("target", ["memory_bounded_schedule", "registry"])
    @pytest.mark.parametrize("mode", ["strict", "opportunistic"])
    def test_bit_identical_schedules(self, tree, mode, target):
        """Both entry points -- the function and the registry's
        ``MemoryBounded``, which runs its sweep spec -- equal the seed."""
        mseq = optimal_postorder(tree).peak_memory
        for p in PROCESSOR_COUNTS:
            for factor in (1.0, 1.5, 3.0):
                cap = factor * mseq

                def run():
                    if target == "registry":
                        return registry.run(
                            "MemoryBounded", tree, p, cap_factor=factor, mode=mode
                        )
                    return memory_bounded_schedule(tree, p, cap, mode=mode)

                try:
                    ref = seed_memory_bounded_schedule(tree, p, cap, mode=mode)
                except MemoryCapError:
                    with pytest.raises(MemoryCapError):
                        run()
                    continue
                got = run()
                assert_same_schedule(got, ref)
                assert got.start.tobytes() == ref.start.tobytes()
                assert got.proc.tobytes() == ref.proc.tobytes()


class TestFullRegistryEquivalence:
    def test_every_algorithm_matches_seed_measurements(self, tree):
        """Every registry algorithm yields the seed makespan and peak.

        List-based algorithms are checked against the embedded seed
        engine; the subtree-splitting and sequential algorithms were not
        refactored, so their own (unchanged) output is the reference --
        the check still guards the registry plumbing around them.
        """
        for name in registry.names():
            algo = registry.get(name)
            for p in PROCESSOR_COUNTS:
                got = simulate(registry.run(name, tree, p))
                if name in SEED_LIST_HEURISTICS:
                    ref = simulate(SEED_LIST_HEURISTICS[name](tree, p))
                elif name == "MemoryBounded":
                    cap = 2.0 * optimal_postorder(tree).peak_memory
                    ref = simulate(seed_memory_bounded_schedule(tree, p, cap))
                elif algo.kind == "sequential":
                    result = algo.fn(tree)
                    ref = simulate(Schedule.sequential(tree, result.order, p=p))
                    assert got.peak_memory == pytest.approx(result.peak_memory)
                else:
                    ref = simulate(algo.fn(tree, p))
                assert got.makespan == ref.makespan
                assert got.peak_memory == ref.peak_memory
