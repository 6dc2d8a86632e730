"""Liu's memory-optimal postorder traversal (Liu, 1986).

Among all *postorder* traversals (each subtree is processed entirely
before moving to a sibling), the minimum peak memory is achieved by
processing the children of every node in non-increasing
:math:`M_j - f_j`, where :math:`M_j` is the optimal postorder peak of the
subtree rooted at child ``j`` and :math:`f_j` its output size.

The recurrence for the peak of node ``i`` with children
:math:`c_1, \\dots, c_k` in that order is

.. math::

   M_i = \\max\\Bigl(\\max_k \\bigl(\\textstyle\\sum_{l<k} f_{c_l} + M_{c_k}\\bigr),\\;
                    \\sum_j f_{c_j} + n_i + f_i\\Bigr).

This is the algorithm the paper uses as its sequential reference
(Section 6.1): it is optimal over general traversals in 95.8% of their
instances with an average gap of 1%, and it runs in :math:`O(n \\log n)`.

Implementation
--------------
The bottom-up recurrence is evaluated **level-synchronously**: all
children at one depth share a single segmented argsort of
``peaks - f`` over the CSR child segments (``np.lexsort`` on
``(-key, segment)``, stable, so ties keep ascending node order exactly
like the historical per-node ``sorted(..., reverse=True)``), and the
sequential prefix sums of the recurrence run as row-wise ``np.cumsum``
over degree-bucketed padded matrices -- per-row accumulation order is
identical to the per-node Python loop, so every peak is bit-identical
to the historical implementation (pinned by golden tests). The final
traversal is emitted without any DFS: with children sorted, each node's
postorder position follows in closed form from subtree sizes and a
pointer-doubling root-path sum.

Deep chain-like trees (levels too narrow for numpy sweeps to pay off)
fall back to the historical per-node loop; all computations are
iterative, so depths up to tens of thousands never hit Python's
recursion limit.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import (
    TaskTree,
    postorder_positions_from_sibling_order,
    use_level_sweeps,
)
from .traversal import TraversalResult

__all__ = [
    "optimal_postorder",
    "postorder_from_peaks",
    "postorder_peaks",
    "natural_postorder",
]


def _postorder_peaks_loop(
    tree: TaskTree, peaks: np.ndarray, descending_ties: bool
) -> np.ndarray:
    """Per-node fallback (the historical loop) for deep, narrow trees."""
    f = tree.f
    sizes = tree.sizes
    leaf = tree.leaf_mask()
    for i in tree.postorder().tolist():
        if leaf[i]:
            continue
        kids = tree.children(i).tolist()
        if descending_ties:
            kids.reverse()
        ordered = sorted(kids, key=lambda j: peaks[j] - f[j], reverse=True)
        acc = 0.0
        best = 0.0
        for j in ordered:
            best = max(best, acc + peaks[j])
            acc += f[j]
        best = max(best, acc + sizes[i] + f[i])
        peaks[i] = best
    return peaks


def postorder_peaks(tree: TaskTree, descending_ties: bool = False) -> np.ndarray:
    """Optimal postorder peak memory ``M_i`` of every subtree.

    ``M_i`` is computed bottom-up with the recurrence above; the value at
    the root is the optimal postorder peak of the whole tree. Siblings
    with equal ``M_j - f_j`` are visited in ascending node order, or in
    descending order with ``descending_ties=True`` -- the order in which
    :meth:`TaskTree.subtree` numbers them, so ``M_r`` then equals the
    peak of the extracted subtree rooted at ``r`` bit for bit (ties only
    change the float accumulation order of the input sizes).
    """
    n = tree.n
    f = tree.f
    sizes = tree.sizes
    peaks = np.zeros(n, dtype=np.float64)
    leaf = tree.leaf_mask()
    peaks[leaf] = sizes[leaf] + f[leaf]
    if bool(leaf.all()):
        return peaks
    depth = tree.depths()
    height = int(depth.max())
    if not use_level_sweeps(height, n):
        return _postorder_peaks_loop(tree, peaks, descending_ties)

    ptr = tree.child_ptr
    cidx = tree.child_idx
    internal = np.flatnonzero(~leaf)
    d_int = depth[internal]
    by_depth = np.argsort(d_int, kind="stable")
    level_counts = np.bincount(d_int, minlength=height + 1)
    pos = internal.shape[0]
    for c in level_counts[::-1]:  # deepest internal level first
        c = int(c)
        if c == 0:
            continue
        parents = internal[by_depth[pos - c : pos]]
        pos -= c
        cnt = ptr[parents + 1] - ptr[parents]
        seg_end = np.cumsum(cnt)
        seg_start = seg_end - cnt
        total = int(seg_end[-1])
        seg = np.repeat(np.arange(c, dtype=np.int64), cnt)
        slot = np.arange(total, dtype=np.int64) - seg_start[seg]
        kids = cidx[ptr[parents][seg] + slot]
        key = peaks[kids] - f[kids]
        # One segmented argsort for the whole level: primary key the
        # segment, secondary -key; np.lexsort is stable, so equal keys
        # keep ascending node order -- identical tie-breaking to the
        # historical stable ``sorted(..., reverse=True)`` per node.
        if descending_ties:
            kids = kids[np.lexsort((-kids, -key, seg))]
        else:
            kids = kids[np.lexsort((-key, seg))]
        f_k = f[kids]
        m_k = peaks[kids]
        # The recurrence's running sums, bucketed by degree class so the
        # padded rows waste at most 2x the real entries: row-wise cumsum
        # accumulates left to right, the exact addition sequence of the
        # per-node loop (bit-identical partial sums).
        width_exp = np.zeros(c, dtype=np.int64)
        tmp = cnt - 1
        while np.any(tmp):
            np.add(width_exp, (tmp > 0).astype(np.int64), out=width_exp)
            tmp >>= 1
        for u in np.unique(width_exp):
            rows = np.flatnonzero(width_exp == u)
            width = 1 << int(u)
            row_cnt = cnt[rows]
            cols = np.arange(width, dtype=np.int64)
            valid = cols[None, :] < row_cnt[:, None]
            flat = seg_start[rows][:, None] + cols[None, :]
            padded_f = np.zeros((rows.shape[0], width), dtype=np.float64)
            padded_f[valid] = f_k[flat[valid]]
            acc_incl = np.cumsum(padded_f, axis=1)
            acc_excl = np.empty_like(acc_incl)
            acc_excl[:, 0] = 0.0
            acc_excl[:, 1:] = acc_incl[:, :-1]
            cand = np.full((rows.shape[0], width), -np.inf)
            cand[valid] = acc_excl[valid] + m_k[flat[valid]]
            best = cand.max(axis=1)
            acc_all = acc_incl[np.arange(rows.shape[0]), row_cnt - 1]
            nodes = parents[rows]
            peaks[nodes] = np.maximum(best, (acc_all + sizes[nodes]) + f[nodes])
    return peaks


def optimal_postorder(tree: TaskTree) -> TraversalResult:
    """Memory-optimal postorder traversal of the whole tree.

    Returns the traversal (children of every node visited in
    non-increasing ``M_j - f_j``) together with its peak memory, which by
    construction equals ``postorder_peaks(tree)[root]``.

    The order is emitted without a DFS: one global segmented argsort of
    ``peaks - f`` over the CSR child segments fixes every sibling order,
    then each node's postorder position is ``preorder position - depth
    + subtree size - 1`` where the preorder position is a
    pointer-doubling root-path sum of ``1 + (earlier siblings' subtree
    sizes)`` -- all integer arithmetic, bit-identical to the historical
    stack-based emission.
    """
    return postorder_from_peaks(tree, postorder_peaks(tree))


def postorder_from_peaks(
    tree: TaskTree, peaks: np.ndarray, descending_ties: bool = False
) -> TraversalResult:
    """The optimal postorder built on precomputed ``peaks`` (the output
    of ``postorder_peaks(tree, descending_ties)``), with its peak.

    Lets a caller that caches the peaks (the prepared tree) emit the
    order without a second bottom-up pass.

    ``descending_ties=True`` visits tied siblings in descending node
    order (see :func:`postorder_peaks`). Every subtree then occupies a
    contiguous slice of the order that is exactly the optimal postorder
    of the extracted subtree, mapped back to the original node indices
    (what :meth:`repro.core.prepared.PreparedTree.subtree_order` serves).
    """
    n = tree.n
    order = np.zeros(n, dtype=np.int64)
    if n > 1:
        cidx = tree.child_idx
        key = peaks[cidx] - tree.f[cidx]
        if descending_ties:
            sorted_cidx = cidx[np.lexsort((-cidx, -key, tree.parent[cidx]))]
        else:
            sorted_cidx = cidx[np.lexsort((-key, tree.parent[cidx]))]
        post = postorder_positions_from_sibling_order(
            tree.parent, tree.child_ptr, sorted_cidx, tree.subtree_sizes(copy=False), tree.depths()
        )
        order[post] = np.arange(n, dtype=np.int64)
    return TraversalResult(order=order, peak_memory=float(peaks[tree.root]))


def natural_postorder(tree: TaskTree) -> TraversalResult:
    """The naive postorder (children in index order) with its peak.

    Used as an ablation baseline: the gap between this and
    :func:`optimal_postorder` shows how much the child ordering matters.
    """
    from .traversal import traversal_peak_memory

    order = tree.postorder().copy()  # writable, like every other traversal
    return TraversalResult(order=order, peak_memory=traversal_peak_memory(tree, order))
