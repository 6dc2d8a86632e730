"""``ParSubtrees`` and ``ParSubtreesOptim`` (Section 5.1, Algorithm 1).

ParSubtrees splits the tree into subtrees with
:func:`~repro.parallel.split_subtrees.split_subtrees`, processes the (up
to) ``p`` heaviest subtrees concurrently -- each with the sequential
memory-optimal traversal -- and finally processes all remaining nodes
sequentially, again in a memory-minimizing order.

Guarantees proved in the paper and property-tested here:

* **memory**: peak at most :math:`(p+1) \\cdot M_{seq}` (each parallel
  subtree needs at most the sequential memory of the whole tree; the
  sequential phase adds at most ``p`` retained subtree outputs);
* **makespan**: a ``p``-approximation, tight on fork trees (Figure 3).

``ParSubtreesOptim`` allocates *all* produced subtrees over the ``p``
processors in LPT fashion (heaviest first onto the least-loaded
processor), which improves the makespan at the price of a (slightly)
higher memory usage -- exactly the trade-off reported in Table 1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["par_subtrees", "par_subtrees_optim"]

#: A sequential-order provider: maps a tree to a topological order.
SequentialOrder = Callable[[TaskTree], np.ndarray]


def _default_order(tree: TaskTree) -> np.ndarray:
    """The paper's sequential reference: Liu's optimal postorder."""
    from repro.sequential.postorder import optimal_postorder

    return optimal_postorder(tree).order


def _orders(
    prepared: PreparedTree, sequential_order: SequentialOrder
) -> tuple[Callable[[int], np.ndarray], np.ndarray]:
    """``(order_of, full_order)``: the ``sequential_order`` of the subtree
    rooted at ``r`` (in original node indices) and of the whole tree.

    The default order reads both from the prepared caches (each subtree
    order is a slice of one global postorder); any other order runs on
    every extracted subtree.
    """
    if sequential_order is _default_order:
        return prepared.subtree_order, prepared.optimal().order
    tree = prepared.tree

    def order_of(r: int) -> np.ndarray:
        sub, nodes = tree.subtree(r)
        return nodes[sequential_order(sub)]

    return order_of, np.asarray(sequential_order(tree), dtype=np.int64)


def _restricted_order(full_order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Subsequence of ``full_order`` restricted to the ``keep`` mask.

    A restriction of a topological order is a topological order of the
    induced sub-forest, and restricting the memory-optimal order keeps
    its locality, which is why both phases use it.
    """
    return full_order[keep[full_order]]


def _pack_schedule(
    tree: TaskTree,
    p: int,
    per_proc_orders: list[list[np.ndarray]],
    seq_nodes_order: np.ndarray,
) -> Schedule:
    """Assemble the two-phase schedule.

    Phase 1: processor ``q`` executes its subtree orders back-to-back.
    Phase 2: the remaining nodes run on processor 0 starting when every
    subtree has completed (the cost model of Algorithm 2).
    """
    start = np.empty(tree.n, dtype=np.float64)
    proc = np.empty(tree.n, dtype=np.int64)

    def back_to_back(nodes: np.ndarray, q: int, t: float) -> float:
        # np.cumsum accumulates left to right: the same float additions
        # as placing the nodes one by one with ``t += w``.
        ends = np.cumsum(np.concatenate(([t], tree.w[nodes])))
        start[nodes] = ends[:-1]
        proc[nodes] = q
        return float(ends[-1])

    phase1_end = 0.0
    for q, orders in enumerate(per_proc_orders):
        if orders:
            phase1_end = max(phase1_end, back_to_back(np.concatenate(orders), q, 0.0))
    back_to_back(seq_nodes_order, 0, phase1_end)
    return Schedule(tree, start, proc, p)


def par_subtrees(
    tree: TaskTree | PreparedTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
) -> Schedule:
    """Algorithm 1: ParSubtrees.

    Parameters
    ----------
    tree, p:
        the instance; a :class:`~repro.core.prepared.PreparedTree`
        shares its caches across calls.
    sequential_order:
        the memory-minimizing sequential algorithm used for each subtree
        and for the remainder (default: optimal postorder, as in the
        paper's experiments, read from the prepared caches; pass Liu's
        exact algorithm for the O(n^2) variant, which runs on every
        extracted subtree).

    The splitting is the prepared tree's cached ``split(p)``, which
    :func:`par_subtrees_optim` and ``MemoryAwareSubtrees`` share.
    """
    prepared = as_prepared(tree)
    split = prepared.split(p)
    order_of, full_order = _orders(prepared, sequential_order)
    keep = np.zeros(prepared.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for q, r in enumerate(split.parallel_roots):
        order = order_of(r)
        per_proc[q].append(order)
        keep[order] = True
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(prepared.tree, p, per_proc, seq_order)


def par_subtrees_optim(
    tree: TaskTree | PreparedTree,
    p: int,
    sequential_order: SequentialOrder = _default_order,
) -> Schedule:
    """ParSubtreesOptim: allocate *all* subtrees to processors (LPT).

    Subtrees are sorted by non-increasing work and greedily assigned to
    the processor with the smallest total load; each processor runs its
    subtrees back-to-back (each internally in memory-optimal order). The
    split nodes are processed sequentially afterwards.
    """
    prepared = as_prepared(tree)
    order_of, full_order = _orders(prepared, sequential_order)
    work = prepared.subtree_work()
    roots = sorted(prepared.split(p).frontier_roots, key=lambda r: float(work[r]), reverse=True)
    loads = [0.0] * p
    keep = np.zeros(prepared.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for r in roots:
        q = loads.index(min(loads))  # the first least-loaded processor
        order = order_of(r)
        per_proc[q].append(order)
        loads[q] += float(work[r])
        keep[order] = True
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(prepared.tree, p, per_proc, seq_order)
