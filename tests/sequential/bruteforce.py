"""Exhaustive-search references for the sequential algorithms.

These are exponential-time oracles that certify

* :func:`repro.sequential.postorder.optimal_postorder` is optimal among
  postorders, and
* :func:`repro.sequential.liu.liu_optimal_traversal` is optimal among
  *all* topological orders.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.tree import TaskTree
from repro.sequential.traversal import TraversalResult, traversal_peak_memory

__all__ = ["best_postorder_bruteforce", "best_traversal_bruteforce"]

_MAX_BRUTE_NODES = 12


def _all_postorders(tree: TaskTree, node: int):
    """Yield every postorder of the subtree rooted at ``node``."""
    kids = tree.children(node)
    if kids.shape[0] == 0:
        yield [node]
        return
    for perm in permutations(kids.tolist()):
        stacks = [list(_all_postorders(tree, c)) for c in perm]

        def combine(idx: int):
            if idx == len(stacks):
                yield []
                return
            for head in stacks[idx]:
                for tail in combine(idx + 1):
                    yield head + tail

        for body in combine(0):
            yield body + [node]


def best_postorder_bruteforce(tree: TaskTree) -> TraversalResult:
    """Minimum peak memory over *all* postorder traversals.

    Exponential in the node degrees; guarded to small trees.
    """
    if tree.n > _MAX_BRUTE_NODES:
        raise ValueError(f"brute force limited to {_MAX_BRUTE_NODES} nodes")
    best_order: list[int] | None = None
    best_peak = float("inf")
    for order in _all_postorders(tree, tree.root):
        peak = traversal_peak_memory(tree, order)
        if peak < best_peak:
            best_peak = peak
            best_order = order
    assert best_order is not None
    return TraversalResult(order=np.asarray(best_order, dtype=np.int64), peak_memory=best_peak)


def best_traversal_bruteforce(tree: TaskTree) -> TraversalResult:
    """Minimum peak memory over all topological orders (any traversal).

    Depth-first search over ready sets with branch-and-bound pruning on
    the incumbent peak. Exponential; guarded to small trees.
    """
    if tree.n > _MAX_BRUTE_NODES:
        raise ValueError(f"brute force limited to {_MAX_BRUTE_NODES} nodes")
    n = tree.n
    inputs = tree.input_sizes()
    remaining_children = np.diff(tree.child_ptr).copy()
    ready = [i for i in range(n) if remaining_children[i] == 0]
    best = {"peak": float("inf"), "order": None}
    order: list[int] = []

    def dfs(mem: float, peak: float, ready: list[int]) -> None:
        if peak >= best["peak"]:
            return
        if len(order) == n:
            best["peak"] = peak
            best["order"] = list(order)
            return
        for k in range(len(ready)):
            node = ready[k]
            new_peak = max(peak, mem + tree.sizes[node] + tree.f[node])
            if new_peak >= best["peak"]:
                continue
            new_mem = mem + tree.f[node] - inputs[node]
            parent = int(tree.parent[node])
            new_ready = ready[:k] + ready[k + 1 :]
            if parent >= 0:
                remaining_children[parent] -= 1
                if remaining_children[parent] == 0:
                    new_ready = new_ready + [parent]
            order.append(node)
            dfs(new_mem, new_peak, new_ready)
            order.pop()
            if parent >= 0:
                remaining_children[parent] += 1

    dfs(0.0, 0.0, ready)
    assert best["order"] is not None
    return TraversalResult(
        order=np.asarray(best["order"], dtype=np.int64), peak_memory=float(best["peak"])
    )
