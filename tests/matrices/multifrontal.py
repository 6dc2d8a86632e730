"""Numeric multifrontal Cholesky: execute a schedule for real.

The whole paper abstracts the multifrontal method into a weighted tree;
this module closes the loop by *running* that abstraction: given an SPD
matrix and any valid schedule of its elimination tree, it performs the
actual numeric factorization task by task -- dense frontal matrices,
partial factorization, extend-add of update matrices along the tree
edges -- and returns the Cholesky factor.

Because tasks only communicate through the tree edges (a child's update
matrix is consumed by its parent), *any* topological execution order
yields the same factor; the test suite exploits this to certify that
every scheduler in the library drives a numerically correct
factorization (against ``numpy.linalg.cholesky``).

The in-memory size of a node's update matrix is exactly the paper's
edge weight ``f_i = (mu_i - 1)^2``, and the frontal matrix accounts for
``n_i = eta^2 + 2 eta (mu-1)`` with ``eta = 1`` -- the weight model of
Section 6.2 made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.schedule import Schedule
from repro.matrices.etree import elimination_tree

__all__ = ["MultifrontalResult", "column_structures", "multifrontal_cholesky"]


@dataclass(frozen=True)
class MultifrontalResult:
    """Outcome of a numeric multifrontal factorization.

    Attributes
    ----------
    L:
        the lower-triangular Cholesky factor (dense, for test-scale
        matrices).
    peak_update_memory:
        maximum total size of live update matrices over the execution --
        the numeric counterpart of the model's file memory.
    """

    L: np.ndarray
    peak_update_memory: float


def column_structures(a: sp.spmatrix, parent: np.ndarray) -> list[np.ndarray]:
    """Row structure of every factor column (sorted, diagonal included).

    Built bottom-up with the characterisation
    ``struct(j) = rows of A(j:, j)  U  (struct(c) \\ {c}) for children c``.
    """
    a = sp.csc_matrix(a)
    n = a.shape[0]
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p != -1:
            children[p].append(j)
    structs: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for j in range(n):
        rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        acc = set(int(r) for r in rows if r >= j)
        acc.add(j)
        for c in children[j]:
            acc.update(int(r) for r in structs[c] if r != c)
        structs[j] = np.asarray(sorted(acc), dtype=np.int64)
    return structs


def multifrontal_cholesky(
    a: sp.spmatrix,
    schedule: Schedule | None = None,
    order: np.ndarray | None = None,
) -> MultifrontalResult:
    """Factorize SPD ``a`` by the multifrontal method.

    Parameters
    ----------
    a:
        symmetric positive-definite matrix (dense fronts: test scale).
    schedule:
        a schedule of the elimination tree (node ``j`` of the tree is
        column ``j``); its start-time order drives the execution. The
        tree of the schedule must have one node per column.
    order:
        alternatively, an explicit topological order of the columns.
        Exactly one of ``schedule`` / ``order`` may be given; neither
        defaults to the natural order ``0..n-1``.

    Notes
    -----
    This is an ``eta = 1`` (no amalgamation) multifrontal method: one
    front per column, rank-1 pivot elimination per task.
    """
    a = sp.csc_matrix(a)
    n = a.shape[0]
    parent = elimination_tree(a)
    if schedule is not None and order is not None:
        raise ValueError("give either a schedule or an order, not both")
    if schedule is not None:
        if schedule.tree.n != n:
            raise ValueError("schedule tree size does not match the matrix")
        order = schedule.order()
    elif order is None:
        order = np.arange(n)
    order = np.asarray(order, dtype=np.int64)

    structs = column_structures(a, parent)
    pos_in_struct = [
        {int(r): k for k, r in enumerate(structs[j])} for j in range(n)
    ]
    updates: dict[int, np.ndarray] = {}  # node -> its update matrix
    pending_children: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p != -1:
            pending_children[p].append(j)

    L = np.zeros((n, n))
    peak = 0.0
    live = 0.0
    dense_cols = {}
    for j in order:
        j = int(j)
        struct = structs[j]
        m = struct.shape[0]
        front = np.zeros((m, m))
        # assemble A's column j (lower part) into the front
        col_rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        col_vals = a.data[a.indptr[j] : a.indptr[j + 1]]
        for r, v in zip(col_rows, col_vals):
            if r >= j:
                front[pos_in_struct[j][int(r)], 0] += v
        # extend-add the children's update matrices
        for c in pending_children[j]:
            if c not in updates:
                raise ValueError(
                    f"column {c} not factored before its parent {j}: "
                    "the order is not topological"
                )
            u = updates.pop(c)
            live -= u.size
            child_rows = structs[c][1:]  # struct(c) minus c itself
            idx = np.asarray([pos_in_struct[j][int(r)] for r in child_rows])
            front[np.ix_(idx, idx)] += u
        # partial factorization: eliminate the pivot (first) column
        pivot = front[0, 0]
        if pivot <= 0:
            raise np.linalg.LinAlgError(f"non-positive pivot at column {j}")
        lcol = front[:, 0] / np.sqrt(pivot)
        L[struct, j] = lcol
        update = front[1:, 1:] - np.outer(lcol[1:], lcol[1:])
        updates[j] = update
        live += update.size
        peak = max(peak, live)
        dense_cols[j] = True
    if any(u.size and not np.allclose(u, 0, atol=1e-8) for u in updates.values()):
        # roots' update matrices must be empty or zero: every eliminated
        # column's contribution was consumed.
        raise RuntimeError("leftover update mass at the roots")
    return MultifrontalResult(L=L, peak_update_memory=float(peak))
