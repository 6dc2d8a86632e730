"""Golden-equivalence tests: the subtree family on ``PreparedTree``.

ParSubtrees, ParSubtreesOptim and MemoryAwareSubtrees now read their
splitting, subtree orders and subtree peaks from the prepared caches.
The extraction-based implementations they replace are embedded below
verbatim (a ``tree.subtree`` extraction plus ``optimal_postorder`` per
selected subtree, the per-node schedule packing; the incremental top-p
``split_subtrees`` with its replay lives in ``split_reference.py``,
shared with ``test_subtree_prepared.py``) as the reference. Every call
form -- bare tree, one prepared tree shared across ``p`` and
algorithms, and the registry -- must reproduce their ``start`` /
``proc`` arrays **byte for byte**, and ``split_subtrees`` their
``SplitResult`` field by field (``cost`` and ``steps`` included).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import registry
from repro.core.prepared import PreparedTree
from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory
from repro.core.tree import TaskTree
from repro.parallel.memory_aware_subtrees import par_subtrees_memory_aware
from repro.parallel.memory_bounded import MemoryCapError
from repro.parallel.par_subtrees import par_subtrees
from repro.parallel.split_subtrees import split_subtrees
from repro.sequential.liu import liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder
from repro.workloads.dataset import PROCESSOR_COUNTS, build_dataset
from repro.workloads.synthetic import caterpillar, random_weighted_tree
from tests.conftest import pebble_trees, task_trees
from tests.parallel.split_reference import ref_split_subtrees


# ----------------------------------------------------------------------
# the extraction-based implementations, embedded as the reference
# ----------------------------------------------------------------------
def ref_order(tree):
    return optimal_postorder(tree).order


def ref_restricted_order(full_order, keep):
    return np.asarray([i for i in full_order if keep[i]], dtype=np.int64)


def ref_pack_schedule(tree, p, per_proc_orders, seq_nodes_order):
    start = np.empty(tree.n, dtype=np.float64)
    proc = np.empty(tree.n, dtype=np.int64)
    phase1_end = 0.0
    for q, orders in enumerate(per_proc_orders):
        t = 0.0
        for order in orders:
            for node in order:
                start[node] = t
                proc[node] = q
                t += float(tree.w[node])
        phase1_end = max(phase1_end, t)
    t = phase1_end
    for node in seq_nodes_order:
        start[node] = t
        proc[node] = 0
        t += float(tree.w[node])
    return Schedule(tree, start, proc, p)


def ref_par_subtrees(tree, p, sequential_order=ref_order):
    split = ref_split_subtrees(tree, p)
    full_order = sequential_order(tree)
    keep = np.zeros(tree.n, dtype=bool)
    per_proc = [[] for _ in range(p)]
    for q, r in enumerate(split.parallel_roots):
        sub, nodes = tree.subtree(r)
        per_proc[q].append(nodes[sequential_order(sub)])
        keep[nodes] = True
    return ref_pack_schedule(tree, p, per_proc, ref_restricted_order(full_order, ~keep))


def ref_par_subtrees_optim(tree, p):
    split = ref_split_subtrees(tree, p)
    full_order = ref_order(tree)
    work = tree.subtree_work()
    roots = sorted(split.frontier_roots, key=lambda r: float(work[r]), reverse=True)
    loads = np.zeros(p, dtype=np.float64)
    keep = np.zeros(tree.n, dtype=bool)
    per_proc = [[] for _ in range(p)]
    for r in roots:
        q = int(np.argmin(loads))
        sub, nodes = tree.subtree(r)
        per_proc[q].append(nodes[ref_order(sub)])
        loads[q] += float(work[r])
        keep[nodes] = True
    return ref_pack_schedule(tree, p, per_proc, ref_restricted_order(full_order, ~keep))


def ref_predicted_parallel_memory(tree, roots, q):
    peaks = []
    for r in roots:
        sub, _ = tree.subtree(r)
        peaks.append(optimal_postorder(sub).peak_memory)
    peaks.sort()
    return float(sum(peaks[:q]))


def ref_build(tree, p, q, roots, work):
    chosen = sorted(roots, key=lambda r: float(work[r]), reverse=True)[:q]
    keep = np.zeros(tree.n, dtype=bool)
    per_proc = [[] for _ in range(p)]
    for k, r in enumerate(chosen):
        sub, nodes = tree.subtree(r)
        per_proc[k].append(nodes[ref_order(sub)])
        keep[nodes] = True
    full_order = ref_order(tree)
    return ref_pack_schedule(tree, p, per_proc, ref_restricted_order(full_order, ~keep))


def ref_par_subtrees_memory_aware(tree, p, cap):
    split = ref_split_subtrees(tree, p)
    roots = list(split.frontier_roots)
    work = tree.subtree_work()
    for q in range(min(p, len(roots)), 1, -1):
        if ref_predicted_parallel_memory(tree, roots, q) > cap:
            continue
        schedule = ref_build(tree, p, q, roots, work)
        if peak_memory(schedule) <= cap + 1e-9:
            return schedule
    schedule = Schedule.sequential(tree, ref_order(tree), p)
    if peak_memory(schedule) > cap + 1e-9:
        raise MemoryCapError("infeasible")
    return schedule


def ref_memory_aware(tree, p, cap_factor=2.0):
    return ref_par_subtrees_memory_aware(
        tree, p, cap_factor * optimal_postorder(tree).peak_memory
    )


REFERENCE = {
    "ParSubtrees": ref_par_subtrees,
    "ParSubtreesOptim": ref_par_subtrees_optim,
    "MemoryAwareSubtrees": ref_memory_aware,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def same_bytes(got: Schedule, ref: Schedule) -> bool:
    return (
        got.start.tobytes() == ref.start.tobytes()
        and got.proc.tobytes() == ref.proc.tobytes()
        and got.p == ref.p
    )


def assert_family_matches(tree: TaskTree, ps=PROCESSOR_COUNTS) -> None:
    """Bare, shared-prepared and registry calls reproduce the reference."""
    prepared = PreparedTree(tree)
    for p in ps:
        ref_split = ref_split_subtrees(tree, p)
        assert split_subtrees(tree, p) == ref_split, p
        assert prepared.split(p) == ref_split, p
        for name, ref_fn in REFERENCE.items():
            ref = ref_fn(tree, p)
            bare = registry.run(name, tree, p)
            shared = registry.run(name, prepared, p)
            assert same_bytes(bare, ref), (name, p, "bare")
            assert same_bytes(shared, ref), (name, p, "prepared")


@pytest.fixture(scope="module")
def tiny_sample():
    # every other tree of the tiny data set (n = 16 .. 256)
    return build_dataset(scale="tiny")[::2]


@pytest.fixture(scope="module")
def small_sample():
    # every sixteenth tree of the paper-scale data set (n = 36 .. 2304)
    return build_dataset(scale="small")[::16]


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
class TestGoldenSubtreeFamily:
    def test_tiny_dataset_sample(self, tiny_sample):
        for inst in tiny_sample:
            assert_family_matches(inst.tree)

    def test_small_dataset_sample(self, small_sample):
        for inst in small_sample:
            assert_family_matches(inst.tree)

    @pytest.mark.parametrize(
        "tree",
        [
            TaskTree.from_parents([-1] + [0] * 40),  # star: every sibling tied
            TaskTree.from_parents([-1] + list(range(299))),  # deep chain
            TaskTree.from_parents(caterpillar(60, 3)),
            random_weighted_tree(3000, np.random.default_rng(5)),
        ],
        ids=["star", "chain", "caterpillar", "random3000"],
    )
    def test_extremes(self, tree):
        assert_family_matches(tree, ps=(1, 2, 3, 8))

    def test_single_node(self):
        assert_family_matches(TaskTree.from_parents([-1], w=2.0), ps=(1, 4))

    @given(task_trees(min_nodes=1, max_nodes=60))
    @settings(max_examples=30, deadline=None)
    def test_random_trees(self, tree):
        assert_family_matches(tree, ps=(1, 2, 4, 7))

    @given(task_trees(min_nodes=1, max_nodes=40, min_w=0, max_w=2))
    @settings(max_examples=30, deadline=None)
    def test_zero_work_nodes(self, tree):
        """Zero-work nodes let a child outrank its parent in the frontier
        order, so a child can be popped before an older frontier entry."""
        assert_family_matches(tree, ps=(1, 2, 3))

    @given(pebble_trees(min_nodes=1, max_nodes=60))
    @settings(max_examples=30, deadline=None)
    def test_unit_weight_trees(self, tree):
        assert_family_matches(tree, ps=(1, 2, 4))

    def test_float_memory_weights(self):
        rng = np.random.default_rng(11)
        for n in (30, 200):
            base = random_weighted_tree(n, rng)
            tree = base.with_weights(
                w=rng.uniform(0.1, 3.0, n),
                f=np.round(rng.uniform(0.1, 2.0, n), 1),
                sizes=np.round(rng.uniform(0.0, 1.0, n), 1),
            )
            assert_family_matches(tree, ps=(2, 5))

    def test_custom_sequential_order_extracts(self, small_sample):
        """A non-default order (Liu's exact traversal) runs on every
        extracted subtree, as before."""
        def liu(t):
            return liu_optimal_traversal(t).order

        for tree in (small_sample[0].tree, random_weighted_tree(300, np.random.default_rng(2))):
            prepared = PreparedTree(tree)
            for p in (2, 8):
                ref = ref_par_subtrees(tree, p, sequential_order=liu)
                assert same_bytes(par_subtrees(prepared, p, sequential_order=liu), ref)

    def test_memory_aware_infeasible_cap(self, paper_example):
        mseq = optimal_postorder(paper_example).peak_memory
        with pytest.raises(MemoryCapError):
            ref_par_subtrees_memory_aware(paper_example, 2, 0.5 * mseq)
        with pytest.raises(MemoryCapError):
            par_subtrees_memory_aware(PreparedTree(paper_example), 2, 0.5 * mseq)
