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
:func:`optimal_postorders` evaluates the recurrence for both tie orders
of equal-key siblings (ascending and descending node index) in one
bottom-up pass of the compiled library
(:func:`repro.core._ckernel.postorder_peaks`) and emits both traversals
top-down, each subtree a contiguous range with its children's ranges
in sorted order. It dispatches on the engine's decision
(:func:`repro.core.engine.resolve_backend`). The Python path, which is
also the oracle of the compiled one, is the historical per-node loop
(:func:`_postorder_peaks_loop`: a stable ``sorted(..., reverse=True)``
per node and the same adds and ``max``) plus a closed-form emission
(:func:`_emit_postorder`); the two paths return the same bytes, pinned
by ``tests/sequential/test_postorder.py``. Both are iterative, so
depths up to tens of thousands never hit Python's recursion limit.
"""

from __future__ import annotations

import numpy as np

from repro.core import _ckernel
from repro.core.engine import resolve_backend
from repro.core.tree import TaskTree, postorder_positions_from_sibling_order
from .traversal import TraversalResult

__all__ = [
    "optimal_postorder",
    "optimal_postorders",
    "postorder_peaks",
    "natural_postorder",
]


def _postorder_peaks_loop(
    tree: TaskTree, peaks: np.ndarray, descending_ties: bool
) -> np.ndarray:
    """The historical per-node loop: Liu's recurrence on the Python
    path, and the oracle of the compiled pass."""
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


def _python_postorder(tree: TaskTree, descending_ties: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(peaks, order)`` of one tie order on the Python path."""
    peaks = np.zeros(tree.n, dtype=np.float64)
    leaf = tree.leaf_mask()
    peaks[leaf] = tree.sizes[leaf] + tree.f[leaf]
    if not bool(leaf.all()):
        _postorder_peaks_loop(tree, peaks, descending_ties)
    return peaks, _emit_postorder(tree, peaks, descending_ties)


def _compiled_postorders(tree: TaskTree):
    """``{descending_ties: (peaks, order)}`` for both tie orders on the
    compiled library, or None where it declines (see the library spec)."""
    got = _ckernel.postorder_peaks(
        tree.child_ptr, tree.child_idx, tree.postorder(), tree.f, tree.sizes
    )
    if got is None:
        return None
    peaks_asc, peaks_desc, order_asc, order_desc = got
    return {False: (peaks_asc, order_asc), True: (peaks_desc, order_desc)}


def optimal_postorders(
    tree: TaskTree, ties: tuple[bool, ...] = (False, True)
) -> dict[bool, tuple[np.ndarray, np.ndarray]]:
    """Liu's peaks ``M_i`` of every subtree and the optimal postorder,
    per tie order: ``{descending_ties: (peaks, order)}``.

    Siblings with equal ``M_j - f_j`` are visited in ascending node
    order, or in descending order for ``descending_ties=True`` -- the
    order in which :meth:`TaskTree.subtree` numbers them, so every
    subtree then occupies a contiguous slice of the order that is
    exactly the optimal postorder of the extracted subtree, and its
    peak equals the extracted subtree's bit for bit (ties only change
    the float accumulation order of the input sizes).

    The compiled library computes both tie orders in one pass and
    returns both, whatever ``ties`` asks for; the Python path computes
    the ones in ``ties``.
    """
    if resolve_backend() == "c":
        both = _compiled_postorders(tree)
        if both is not None:
            return both
    return {d: _python_postorder(tree, d) for d in ties}


def postorder_peaks(tree: TaskTree, descending_ties: bool = False) -> np.ndarray:
    """Optimal postorder peak memory ``M_i`` of every subtree.

    ``M_i`` is computed bottom-up with the recurrence above; the value at
    the root is the optimal postorder peak of the whole tree. Ties as in
    :func:`optimal_postorders`.
    """
    return optimal_postorders(tree, (descending_ties,))[descending_ties][0]


def optimal_postorder(tree: TaskTree) -> TraversalResult:
    """Memory-optimal postorder traversal of the whole tree.

    Returns the traversal (children of every node visited in
    non-increasing ``M_j - f_j``, ties in ascending node order) together
    with its peak memory, which by construction equals
    ``postorder_peaks(tree)[root]``.
    """
    peaks, order = optimal_postorders(tree, (False,))[False]
    return TraversalResult(order=order, peak_memory=float(peaks[tree.root]))


def _emit_postorder(tree: TaskTree, peaks: np.ndarray, descending_ties: bool) -> np.ndarray:
    """The optimal postorder on the given ``peaks`` (the Python path's
    emission).

    One global segmented argsort of ``peaks - f`` over the CSR child
    segments fixes every sibling order, then each node's postorder
    position is ``preorder position - depth + subtree size - 1`` where
    the preorder position is a pointer-doubling root-path sum of ``1 +
    (earlier siblings' subtree sizes)`` -- all integer arithmetic.
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
    return order


def natural_postorder(tree: TaskTree) -> TraversalResult:
    """The naive postorder (children in index order) with its peak.

    Used as an ablation baseline: the gap between this and
    :func:`optimal_postorder` shows how much the child ordering matters.
    """
    from .traversal import traversal_peak_memory

    order = tree.postorder().copy()  # writable, like every other traversal
    return TraversalResult(order=order, peak_memory=traversal_peak_memory(tree, order))
