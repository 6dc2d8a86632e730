"""Symmetric sparsity patterns for the ordering, symbolic and
amalgamation oracle tests: a hypothesis strategy and a handful of named
edge cases, all as raw CSR matrices."""

from __future__ import annotations

import random

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st


def raw_csr(n: int, rows: list[list[int]]) -> sp.csr_matrix:
    """A CSR matrix with exactly these row index lists, in this order.

    Duplicate and unsorted indices are kept (scipy does not canonicalise
    a CSR built from ``(data, indices, indptr)``).
    """
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum([len(r) for r in rows], dtype=np.int64)
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    return sp.csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))


def pattern(n: int, edges, diagonal: bool = True) -> sp.csr_matrix:
    """Symmetric pattern with these undirected ``edges`` (sorted rows)."""
    rows: list[set[int]] = [{i} if diagonal else set() for i in range(n)]
    for i, j in edges:
        rows[i].add(j)
        rows[j].add(i)
    return raw_csr(n, [sorted(r) for r in rows])


@st.composite
def symmetric_patterns(draw, max_nodes: int = 24) -> sp.csr_matrix:
    """A random symmetric pattern of random density.

    Some draws drop diagonal entries (so some rows are empty), repeat
    entries, or shuffle each row's indices.
    """
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.8]))
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < density:
                rows[i].append(j)
                rows[j].append(i)
    diagonal = draw(st.sampled_from(["all", "some", "none"]))
    for i in range(n):
        if diagonal == "all" or (diagonal == "some" and rnd.random() < 0.5):
            rows[i].append(i)
    if draw(st.booleans()):  # duplicate entries
        rows = [r + [j for j in r if rnd.random() < 0.3] for r in rows]
    if draw(st.booleans()):  # unsorted indices
        for r in rows:
            rnd.shuffle(r)
    else:
        rows = [sorted(r) for r in rows]
    return raw_csr(n, rows)


def _arrow(n: int) -> sp.csr_matrix:
    return pattern(n, [(0, j) for j in range(1, n)])


def _duplicates_unsorted() -> sp.csr_matrix:
    # a 6-cycle plus a chord, rows reversed and some entries repeated
    a = pattern(6, [(k, (k + 1) % 6) for k in range(6)] + [(0, 3)])
    rows = [a.indices[a.indptr[i] : a.indptr[i + 1]].tolist()[::-1] for i in range(6)]
    rows[0] += rows[0][:2]
    rows[3] += [0, 0]
    return raw_csr(6, rows)


#: name -> pattern: the cases the fuzzers must always include.
EDGE_CASES: dict[str, sp.csr_matrix] = {
    "n0": pattern(0, []),
    "n1": pattern(1, []),
    "n1-no-diagonal": pattern(1, [], diagonal=False),
    "diagonal-only": pattern(7, []),
    "disconnected-blocks": sp.csr_matrix(
        sp.block_diag([pattern(4, [(0, 1), (1, 2), (2, 3)]), pattern(5, [(0, j) for j in range(1, 5)])])
    ),
    "arrow-first-row": _arrow(9),
    "arrow-last-row": pattern(9, [(j, 8) for j in range(8)]),
    "empty-rows": pattern(8, [(0, 5), (5, 7), (2, 7)], diagonal=False),
    "duplicates-unsorted": _duplicates_unsorted(),
    "clique": pattern(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
}
