"""Relaxed node amalgamation: elimination tree -> assembly tree.

The paper performs "a relaxed node amalgamation on these elimination
trees to create assembly trees ... allowing 1, 2, 4, and 16 relaxed
amalgamations per node". We reproduce this with a bottom-up greedy
merge along etree edges:

a child group ``c`` merges into its parent group ``p`` when

1. the combined size stays within the cap:
   ``eta_c + eta_p <= max_amalgamation``, and
2. the merge does not pad the supernode too much:
   ``(mu_top(p) + eta_p) - mu_c <= relax * (mu_top(p) + eta_p)``,
   i.e. the child's factor column is within a ``relax`` fraction of the
   length it would have were it perfectly nested under the parent group
   (``relax = 0`` keeps only fundamental supernodes; chains with exact
   nesting always satisfy it).

``max_amalgamation = 1`` disables merging, so the assembly tree equals
the elimination tree -- the paper's base variant.

Node weights of the resulting task tree follow
:mod:`repro.matrices.weights`: ``eta`` is the group size and ``mu`` the
column count of the group's *highest* node in the starting elimination
tree, exactly as Section 6.2 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tree import TaskTree, NO_PARENT
from .symbolic import SymbolicFactorization
from .weights import assembly_weights

__all__ = ["AssemblyTree", "amalgamate"]


@dataclass(frozen=True)
class AssemblyTree:
    """An assembly tree with the paper's weight model.

    Attributes
    ----------
    tree:
        the weighted task tree fed to the schedulers.
    eta:
        per-assembly-node count of amalgamated elimination nodes.
    mu:
        per-assembly-node factor column count of the highest node.
    group_of:
        map from original elimination-tree node to assembly node.
    """

    tree: TaskTree
    eta: np.ndarray
    mu: np.ndarray
    group_of: np.ndarray


def amalgamate(
    symbolic: SymbolicFactorization,
    max_amalgamation: int = 1,
    relax: float = 0.25,
) -> AssemblyTree:
    """Build the assembly tree from a symbolic factorization.

    Parameters
    ----------
    symbolic:
        the elimination tree and column counts of the (permuted) matrix.
    max_amalgamation:
        cap on the number of elimination nodes per assembly node (the
        paper sweeps 1, 2, 4, 16).
    relax:
        padding tolerance of criterion 2 above.

    Notes
    -----
    If the elimination structure is a forest (reducible matrix), a
    virtual root (``eta = mu = 1``, hence zero output file) is added to
    obtain a single tree, which does not change any schedule's memory
    behaviour (its weights are negligible).
    """
    if max_amalgamation < 1:
        raise ValueError("max_amalgamation must be >= 1")
    n = symbolic.n
    if np.any((symbolic.parent != -1) & (symbolic.parent <= np.arange(n))):
        raise ValueError("etree parents must have larger indices than their children")
    parent = symbolic.parent.tolist()
    counts = symbolic.counts.tolist()

    # Children have smaller indices than parents in an etree, so the
    # natural order is a valid bottom-up sweep. When ``j`` is swept,
    # neither ``j`` nor its parent has been merged upward yet, so each
    # is still the representative (the highest member) of its group,
    # and a merge is one pointer ``up[j] = p``.
    up = list(range(n))
    eta = [1] * n
    if max_amalgamation > 1:
        for j, p in enumerate(parent):
            if p == -1:
                continue
            combined = eta[j] + eta[p]
            if combined > max_amalgamation:
                continue
            nested_len = float(counts[p] + eta[p])
            padding = nested_len - float(counts[j])
            if padding > relax * nested_len:
                continue
            up[j] = p
            eta[p] = combined

    # Pointers go to larger indices, so a top-down sweep resolves each
    # node's representative from its pointer's.
    rep_of = up[:]
    for j in range(n - 1, -1, -1):
        rep_of[j] = rep_of[up[j]]
    rep_of = np.array(rep_of, dtype=np.int64)
    reps = np.flatnonzero(rep_of == np.arange(n))
    m = reps.shape[0]
    index_of = np.empty(n, dtype=np.int64)
    index_of[reps] = np.arange(m)
    group_of = index_of[rep_of]
    eta_g = np.array(eta, dtype=np.int64)[reps]
    mu_g = symbolic.counts[reps].astype(np.int64)

    rep_parent = symbolic.parent[reps]
    a_parent = np.where(rep_parent == -1, NO_PARENT, group_of[rep_parent])

    roots = np.flatnonzero(a_parent == NO_PARENT)
    if roots.shape[0] > 1:
        # Virtual root to join the forest.
        a_parent = np.concatenate([a_parent, [NO_PARENT]])
        a_parent[roots] = m
        eta_g = np.concatenate([eta_g, [1]])
        mu_g = np.concatenate([mu_g, [1]])
        m += 1

    sizes, w, f = assembly_weights(eta_g, mu_g)
    tree = TaskTree(a_parent, w, f, sizes)
    return AssemblyTree(tree=tree, eta=eta_g, mu=mu_g, group_of=group_of)
