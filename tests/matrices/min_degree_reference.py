"""The minimum-degree and nested-dissection orderings that the bitset
rewrite in :mod:`repro.matrices.ordering` replaced, kept verbatim as the
oracles it is tested against: adjacency as Python sets, and each
elimination clique formed with one ``set.add`` per pair of neighbours.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp


def _adjacency_sets(a: sp.spmatrix) -> list[set[int]]:
    """Off-diagonal adjacency sets of a symmetric-pattern matrix."""
    a = sp.csr_matrix(a)
    n = a.shape[0]
    adj: list[set[int]] = []
    for i in range(n):
        row = set(int(j) for j in a.indices[a.indptr[i] : a.indptr[i + 1]])
        row.discard(i)
        adj.append(row)
    return adj


def minimum_degree(a: sp.spmatrix) -> np.ndarray:
    """Greedy minimum-degree ordering on the elimination graph.

    At each step the node of smallest current degree is eliminated and
    its neighbourhood turned into a clique (the fill produced by that
    elimination). A lazy heap keeps the complexity near
    O(n log n + fill); this is the exact (non-approximate) variant of
    the ``amd`` family the paper uses.
    """
    adj = _adjacency_sets(a)
    n = len(adj)
    heap = [(len(adj[i]), i) for i in range(n)]
    heapq.heapify(heap)
    eliminated = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    k = 0
    while heap:
        deg, v = heapq.heappop(heap)
        if eliminated[v] or deg != len(adj[v]):
            continue  # stale entry
        eliminated[v] = True
        perm[k] = v
        k += 1
        neigh = adj[v]
        for u in neigh:
            adj[u].discard(v)
        # Form the clique among the (non-eliminated) neighbours.
        neigh_list = [u for u in neigh if not eliminated[u]]
        for idx, u in enumerate(neigh_list):
            others = neigh_list[idx + 1 :]
            before = len(adj[u])
            adj[u].update(others)
            for t in others:
                adj[t].add(u)
            if len(adj[u]) != before:
                heapq.heappush(heap, (len(adj[u]), u))
        for u in neigh_list:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    if k != n:  # pragma: no cover - defensive
        raise RuntimeError("minimum degree lost vertices")
    return perm


def _pseudo_peripheral(adj: list[set[int]], nodes: list[int]) -> tuple[int, dict[int, int]]:
    """Double-BFS pseudo-peripheral node of the subgraph on ``nodes``.

    Returns the chosen node and its BFS level map over the subgraph
    component containing it.
    """
    node_set = set(nodes)
    start = nodes[0]

    def bfs(src: int) -> dict[int, int]:
        level = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in node_set and v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level

    levels = bfs(start)
    far = max(levels, key=lambda u: (levels[u], u))
    levels = bfs(far)
    return far, levels


def nested_dissection(a: sp.spmatrix, leaf_size: int = 32) -> np.ndarray:
    """Recursive level-set nested dissection ordering.

    The separator is the middle BFS level from a pseudo-peripheral node;
    the two halves are ordered recursively and the separator last.
    Subgraphs of at most ``leaf_size`` nodes are ordered by minimum
    degree. This mirrors MeTiS's role in the paper: wide, balanced
    assembly trees.
    """
    adj = _adjacency_sets(a)
    n = len(adj)
    perm: list[int] = []

    def order_small(nodes: list[int]) -> list[int]:
        if len(nodes) <= 1:
            return list(nodes)
        idx = {u: i for i, u in enumerate(nodes)}
        rows, cols = [], []
        for u in nodes:
            for v in adj[u]:
                if v in idx:
                    rows.append(idx[u])
                    cols.append(idx[v])
        sub = sp.csr_matrix(
            (np.ones(len(rows) + len(nodes)),
             (rows + list(range(len(nodes))), cols + list(range(len(nodes))))),
            shape=(len(nodes), len(nodes)),
        )
        return [nodes[i] for i in minimum_degree(sub)]

    def recurse(nodes: list[int]) -> None:
        if len(nodes) <= leaf_size:
            perm.extend(order_small(nodes))
            return
        src, levels = _pseudo_peripheral(adj, nodes)
        if len(levels) < len(nodes):
            # Disconnected subgraph: handle the found component, recurse
            # on the rest.
            comp = [u for u in nodes if u in levels]
            rest = [u for u in nodes if u not in levels]
            recurse(comp)
            recurse(rest)
            return
        max_level = max(levels.values())
        if max_level < 2:
            perm.extend(order_small(nodes))
            return
        mid = max_level // 2
        sep = [u for u in nodes if levels[u] == mid]
        left = [u for u in nodes if levels[u] < mid]
        right = [u for u in nodes if levels[u] > mid]
        recurse(left)
        recurse(right)
        perm.extend(order_small(sep))

    recurse(list(range(n)))
    if len(perm) != n:  # pragma: no cover - defensive
        raise RuntimeError("nested dissection lost vertices")
    return np.asarray(perm, dtype=np.int64)
