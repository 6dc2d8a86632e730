"""The relaxed amalgamation that the list-based rewrite in
:mod:`repro.matrices.amalgamation` replaced, kept verbatim as the oracle
it is tested against: the union-find and the merge criteria run over
numpy arrays, one scalar at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import TaskTree, NO_PARENT
from repro.matrices.amalgamation import AssemblyTree
from repro.matrices.symbolic import SymbolicFactorization
from repro.matrices.weights import assembly_weights


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
    parent = symbolic.parent
    counts = symbolic.counts
    n = symbolic.n

    # Union-find over groups; the representative is the *highest*
    # (largest-index) member since merges always go child -> parent and
    # etree parents have larger indices.
    group = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while group[root] != root:
            root = int(group[root])
        while group[x] != root:
            group[x], x = root, int(group[x])
        return root

    eta = np.ones(n, dtype=np.int64)
    if max_amalgamation > 1:
        # Children have smaller indices than parents in an etree, so the
        # natural order is a valid bottom-up sweep.
        for j in range(n):
            p = int(parent[j])
            if p == -1:
                continue
            gc = find(j)
            gp = find(p)
            if gc == gp:
                continue
            combined = eta[gc] + eta[gp]
            if combined > max_amalgamation:
                continue
            nested_len = float(counts[gp] + eta[gp])
            padding = nested_len - float(counts[gc])
            if padding > relax * nested_len:
                continue
            group[gc] = gp
            eta[gp] = combined

    reps = sorted(set(find(j) for j in range(n)))
    index_of = {r: k for k, r in enumerate(reps)}
    group_of = np.array([index_of[find(j)] for j in range(n)], dtype=np.int64)
    m = len(reps)
    eta_g = np.array([eta[r] for r in reps], dtype=np.int64)
    mu_g = np.array([counts[r] for r in reps], dtype=np.int64)

    a_parent = np.full(m, NO_PARENT, dtype=np.int64)
    for k, r in enumerate(reps):
        p = int(parent[r])
        if p != -1:
            a_parent[k] = index_of[find(p)]

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
