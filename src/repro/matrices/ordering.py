"""Fill-reducing orderings: minimum degree, RCM, nested dissection.

The paper orders its matrices with MeTiS (nested dissection) and ``amd``
(approximate minimum degree). We implement the same two families from
scratch -- a textbook minimum-degree on the elimination graph and a
recursive level-set nested dissection -- plus SciPy's reverse
Cuthill-McKee as a third, band-oriented regime. All functions return a
permutation array ``perm`` with ``perm[k] =`` the original index of the
k-th eliminated variable; apply it as ``A[perm][:, perm]``.

Minimum degree keeps each adjacency row of the elimination graph as a
Python ``int`` bitset: eliminating ``v`` ORs its neighbourhood into each
neighbour's row and clears ``v`` and the neighbour's own bit, and a
degree is one ``int.bit_count()``. A lazy ``(degree, index)`` heap
picks the next node, smallest index first on ties. Nested dissection's
leaf and separator orderings run the same elimination on bitset rows of
the induced subgraph.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import scipy.sparse as sp

__all__ = ["minimum_degree", "rcm", "nested_dissection", "natural", "ORDERINGS", "apply_ordering"]


def _adjacency_lists(a: sp.spmatrix) -> list[list[int]]:
    """Off-diagonal neighbours of each row of a symmetric-pattern matrix.

    A row may list a neighbour twice when the CSR holds duplicate
    entries; every consumer here is insensitive to that.
    """
    a = sp.csr_matrix(a)
    indptr = a.indptr.tolist()
    indices = a.indices.tolist()
    adj: list[list[int]] = []
    for i in range(a.shape[0]):
        row = indices[indptr[i] : indptr[i + 1]]
        adj.append([j for j in row if j != i])
    return adj


def _rows_to_bits(rows: list[list[int]]) -> list[int]:
    """Each neighbour list as an ``int`` bitset (bit ``j`` = neighbour ``j``)."""
    bits = []
    for row in rows:
        b = 0
        for j in row:
            b |= 1 << j
        bits.append(b)
    return bits


def _min_degree_bits(rows: list[int]) -> list[int]:
    """Minimum-degree elimination order of the graph with bitset ``rows``.

    ``rows[i]`` holds bit ``j`` iff ``i`` and ``j`` are adjacent; the
    pattern must be symmetric and free of self-loops. ``rows`` is
    consumed. The lazy heap holds ``degree * n + index``, which orders
    like the pair ``(degree, index)``; an entry is stale once its
    degree differs from ``degree[index]`` (``-1`` after elimination),
    and every live node always has one current entry.
    """
    n = len(rows)
    degree = [row.bit_count() for row in rows]
    heap = [d * n + i for i, d in enumerate(degree)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    perm: list[int] = []
    while heap:
        d, v = divmod(pop(heap), n)
        if d != degree[v]:
            continue  # stale entry
        degree[v] = -1
        perm.append(v)
        clique = rows[v]
        rows[v] = 0
        not_v = ~(1 << v)
        # Each neighbour u joins the clique on v's neighbourhood (minus
        # u itself) and loses v.
        rest = clique
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            row = ((rows[u] | clique) ^ low) & not_v
            rows[u] = row
            d = row.bit_count()
            if d != degree[u]:
                degree[u] = d
                push(heap, d * n + u)
    if len(perm) != n:  # pragma: no cover - defensive
        raise RuntimeError("minimum degree lost vertices")
    return perm


def natural(a: sp.spmatrix) -> np.ndarray:
    """The identity ordering (baseline)."""
    return np.arange(a.shape[0], dtype=np.int64)


def minimum_degree(a: sp.spmatrix) -> np.ndarray:
    """Greedy minimum-degree ordering on the elimination graph.

    At each step the node of smallest current degree is eliminated
    (ties go to the smallest index) and its neighbourhood turned into a
    clique (the fill produced by that elimination). Each adjacency row
    is a Python ``int`` used as a bitset, so forming the clique is one
    ``|`` per neighbour and a degree is ``int.bit_count()``. A lazy
    ``(degree, index)`` heap picks the next node. This is the exact
    (non-approximate) variant of the ``amd`` family the paper uses.
    """
    return np.asarray(_min_degree_bits(_rows_to_bits(_adjacency_lists(a))), dtype=np.int64)


def rcm(a: sp.spmatrix) -> np.ndarray:
    """Reverse Cuthill-McKee (SciPy), a bandwidth-reducing ordering.

    Produces chain-like elimination trees -- the deep-tree regime of the
    paper's data set.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    return np.asarray(
        reverse_cuthill_mckee(sp.csr_matrix(a), symmetric_mode=True), dtype=np.int64
    )


def nested_dissection(a: sp.spmatrix, leaf_size: int = 32) -> np.ndarray:
    """Recursive level-set nested dissection ordering.

    The separator is the middle BFS level from a pseudo-peripheral node
    (double BFS: the largest-index node of the last level, from the
    subgraph's first node); the two halves are ordered recursively and
    the separator last. Subgraphs of at most ``leaf_size`` nodes are
    ordered by minimum degree. This mirrors MeTiS's role in the paper:
    wide, balanced assembly trees.
    """
    adj = _adjacency_lists(a)
    n = len(adj)
    perm: list[int] = []
    # Scratch shared by every subproblem, stamped instead of cleared:
    # ``member[u] == sub`` marks the current subgraph, ``seen[u] == tag``
    # the nodes one BFS reached, with their distance in ``level[u]``.
    member = [0] * n
    seen = [0] * n
    level = [0] * n
    stamps = itertools.count(1)

    def bfs(src: int, sub: int, tag: int) -> list[list[int]]:
        """BFS layers of ``src``'s component in subgraph ``sub``."""
        seen[src] = tag
        level[src] = 0
        layers = [[src]]
        d = 0
        while True:
            d += 1
            nxt = []
            for u in layers[-1]:
                for v in adj[u]:
                    if member[v] == sub and seen[v] != tag:
                        seen[v] = tag
                        level[v] = d
                        nxt.append(v)
            if not nxt:
                return layers
            layers.append(nxt)

    def order_small(nodes: list[int]) -> list[int]:
        # Minimum degree on the induced subgraph, local index = position
        # in ``nodes`` (so the smallest-index tie-break is unchanged).
        if len(nodes) <= 1:
            return list(nodes)
        idx = {u: i for i, u in enumerate(nodes)}
        rows = [[idx[v] for v in adj[u] if v in idx] for u in nodes]
        return [nodes[i] for i in _min_degree_bits(_rows_to_bits(rows))]

    def recurse(nodes: list[int]) -> None:
        if len(nodes) <= leaf_size:
            perm.extend(order_small(nodes))
            return
        sub = next(stamps)
        for u in nodes:
            member[u] = sub
        far = max(bfs(nodes[0], sub, next(stamps))[-1])
        tag = next(stamps)
        layers = bfs(far, sub, tag)
        if sum(map(len, layers)) < len(nodes):
            # Disconnected subgraph: handle the found component, recurse
            # on the rest.
            comp = [u for u in nodes if seen[u] == tag]
            rest = [u for u in nodes if seen[u] != tag]
            recurse(comp)
            recurse(rest)
            return
        max_level = len(layers) - 1
        if max_level < 2:
            perm.extend(order_small(nodes))
            return
        mid = max_level // 2
        sep = [u for u in nodes if level[u] == mid]
        left = [u for u in nodes if level[u] < mid]
        right = [u for u in nodes if level[u] > mid]
        recurse(left)
        recurse(right)
        perm.extend(order_small(sep))

    recurse(list(range(n)))
    if len(perm) != n:  # pragma: no cover - defensive
        raise RuntimeError("nested dissection lost vertices")
    return np.asarray(perm, dtype=np.int64)


def apply_ordering(a: sp.spmatrix, perm: np.ndarray) -> sp.csr_matrix:
    """Symmetrically permute ``a`` by ``perm`` (``A[perm][:, perm]``)."""
    a = sp.csr_matrix(a)
    return sp.csr_matrix(a[perm][:, perm])


#: Named orderings used by the data-set builder.
ORDERINGS = {
    "natural": natural,
    "min-degree": minimum_degree,
    "rcm": rcm,
    "nested-dissection": nested_dissection,
}
