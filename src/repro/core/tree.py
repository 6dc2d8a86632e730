"""Tree-shaped task graph model.

This module implements the application model of Section 3.1 of the paper:
a rooted *in-tree* of ``n`` tasks where task ``i`` carries

* ``w[i]``    -- processing time of the task,
* ``sizes[i]``-- size of the *execution file* (the task's program),
  written :math:`n_i` in the paper,
* ``f[i]``    -- size of the *output file*, i.e. of the edge from ``i`` to
  its parent (:math:`f_i` in the paper).

Processing task ``i`` requires memory
:math:`\\sum_{j \\in Children(i)} f_j + n_i + f_i`; once the task completes,
its input files and execution file are freed while its output file remains
resident until the parent completes.

The structure is array-based (``numpy`` integer/float vectors) with a
**CSR children representation**: ``child_idx`` holds every non-root node
grouped by parent (in ascending node order within each group, via one
stable ``np.argsort`` of the parent vector) and ``child_ptr[p]`` /
``child_ptr[p+1]`` delimit the children of node ``p``. Construction,
the cached postorder, subtree extraction and all per-node aggregates are
fully vectorized sweeps over these arrays, which is what keeps the
heuristics at :math:`O(n \\log n)` overall as in the paper's C
implementation -- with numpy-kernel constants instead of Python-loop
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "TaskTree",
    "NO_PARENT",
    "postorder_positions_from_sibling_order",
]

#: Sentinel used in ``parent`` arrays for the root node.
NO_PARENT: int = -1


def use_level_sweeps(height: int, n: int) -> bool:
    """Crossover heuristic: level-synchronous numpy sweeps vs. per-node
    loops.

    Wide, shallow trees amortise a handful of numpy calls per depth
    level; degenerate chain-like trees (one node per level) do not.
    Shared by ``TaskTree`` construction and ``weighted_depths``, so both
    pick the same regime for a given tree. On random trees the sweeps
    build a tree 1.7x (n = 1e4) to 2.9x (n = 1e5) faster than the loops
    and compute weighted depths 2.8x to 7.8x faster; on the 64 paper
    trees both regimes cost the same.
    """
    return height + 1 <= max(64, n // 16)


def postorder_positions_from_sibling_order(
    parent: np.ndarray,
    child_ptr: np.ndarray,
    ordered_children: np.ndarray,
    size: np.ndarray,
    depth: np.ndarray,
) -> np.ndarray:
    """Postorder position of every node, given a per-parent sibling order.

    ``ordered_children`` is the CSR ``child_idx`` array with each
    parent's segment permuted into the desired visiting order. The
    preorder position of a node is the root-path sum of ``1 + (total
    subtree size of earlier siblings)`` -- sibling prefixes from one
    global cumsum over the segments (integer, exact), the path sum by
    pointer doubling -- and with children visited in that order the
    postorder position is ``preorder - depth + size - 1``. Used both at
    tree construction (index-ordered siblings) and by the memory-optimal
    postorder (siblings sorted by Liu's criterion).
    """
    n = parent.shape[0]
    sz = size[ordered_children]
    incl = np.cumsum(sz)
    excl = incl - sz
    seg_start = child_ptr[parent[ordered_children]]
    acc = np.zeros(n, dtype=np.int64)
    acc[ordered_children] = 1 + (excl - excl[seg_start])
    # Pointer doubling: acc[i] holds the sum over the path from i
    # (inclusive) to anc[i] (exclusive), anc the clamped 2^k-th ancestor;
    # acc[root] is 0, so the clamped endpoint does not matter.
    idx = np.arange(n, dtype=np.int64)
    anc = np.where(parent == NO_PARENT, idx, parent)
    while True:
        anc2 = anc[anc]
        if np.array_equal(anc2, anc):
            return acc - depth + size - 1
        acc += acc[anc]
        anc = anc2


@dataclass(frozen=True)
class TaskTree:
    """An in-tree task graph with memory weights and task durations.

    Instances are immutable; all mutating-style operations return new trees.

    Parameters
    ----------
    parent:
        ``parent[i]`` is the parent of node ``i``; the root has
        ``parent[root] == NO_PARENT`` (-1). Exactly one root is required.
    w:
        processing times (non-negative).
    f:
        output file sizes, one per node (non-negative). The root's output
        may be zero (results sent to the outside world).
    sizes:
        execution file sizes (:math:`n_i` in the paper, non-negative).

    Notes
    -----
    The CSR children arrays, the root, node depths and the cached
    postorder are computed once at construction in vectorized sweeps;
    subtree sizes, postorder positions and input sizes are computed
    lazily on first use and cached. All cached arrays are marked
    read-only; accessors that historically returned fresh arrays return
    copies.
    """

    parent: np.ndarray
    w: np.ndarray
    f: np.ndarray
    sizes: np.ndarray
    _child_ptr: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _child_idx: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _root: int = field(init=False, repr=False, compare=False, default=-1)
    _depths: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _postorder: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _post_pos: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _subtree_sizes: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _input_sizes: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _completion_frees: np.ndarray = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        parent = np.ascontiguousarray(np.asarray(self.parent, dtype=np.int64))
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.f, dtype=np.float64))
        sizes = np.ascontiguousarray(np.asarray(self.sizes, dtype=np.float64))
        n = parent.shape[0]
        if not (w.shape[0] == f.shape[0] == sizes.shape[0] == n):
            raise ValueError("parent, w, f, sizes must have the same length")
        if n == 0:
            raise ValueError("a task tree must contain at least one task")
        roots = np.flatnonzero(parent == NO_PARENT)
        if roots.shape[0] != 1:
            raise ValueError(f"expected exactly one root, found {roots.shape[0]}")
        if np.any((parent < NO_PARENT) | (parent >= n)):
            raise ValueError("parent indices out of range")
        if np.any(parent == np.arange(n)):
            raise ValueError("a node cannot be its own parent")
        for name, col in (("w", w), ("f", f), ("sizes", sizes)):
            if not np.all(np.isfinite(col)):
                raise ValueError(f"weights must be finite, {name} is not")
        if np.any(w < 0) or np.any(f < 0) or np.any(sizes < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "sizes", sizes)
        root = int(roots[0])
        object.__setattr__(self, "_root", root)

        # CSR children: one stable argsort groups every non-root node by
        # parent; the root (parent == -1) sorts first and is dropped.
        # Stability keeps children in ascending node order within each
        # group -- the same order the historical per-node lists used.
        by_parent = np.argsort(parent, kind="stable")
        child_idx = np.ascontiguousarray(by_parent[1:])
        counts = np.bincount(parent[child_idx], minlength=n)
        child_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=child_ptr[1:])

        # Depths by pointer doubling. A cycle (disguised as extra edges
        # to a forest) never converges, so cap the iteration count at the
        # bound any true tree satisfies (2^k ancestors reach the root
        # once 2^k >= height <= n-1).
        idx = np.arange(n, dtype=np.int64)
        anc = np.where(parent == NO_PARENT, idx, parent)
        depth = (parent != NO_PARENT).astype(np.int64)
        limit = max(1, int(n - 1).bit_length()) + 1
        iterations = 0
        while True:
            anc2 = anc[anc]
            if np.array_equal(anc2, anc):
                break
            iterations += 1
            if iterations > limit:
                raise ValueError("parent structure contains a cycle")
            depth += depth[anc]
            anc = anc2
        # Doubling also converges on a detached cycle whose length divides
        # 2^k (every member becomes its own ancestor); a true tree ends
        # with every chain clamped at the root.
        if not np.all(anc == root):
            raise ValueError("parent structure contains a cycle")
        height = int(depth.max()) if n > 1 else 0

        subtree_sizes = None
        post_pos = None
        if use_level_sweeps(height, n):
            # Vectorized postorder: subtree sizes bottom-up by level,
            # then every node's postorder position in closed form.
            size = np.ones(n, dtype=np.int64)
            if height > 0:
                by_depth = np.argsort(depth, kind="stable")
                level_counts = np.bincount(depth, minlength=height + 1)
                pos = n
                for c in level_counts[:0:-1]:  # deepest level ... level 1
                    c = int(c)
                    nodes = by_depth[pos - c : pos]
                    pos -= c
                    np.add.at(size, parent[nodes], size[nodes])
            post_pos = postorder_positions_from_sibling_order(
                parent, child_ptr, child_idx, size, depth
            )
            porder = np.empty(n, dtype=np.int64)
            porder[post_pos] = idx
            subtree_sizes = size
        else:
            # Deep, chain-like trees: levels are too narrow for the
            # per-level numpy sweeps to pay off; fall back to the
            # iterative DFS (children pushed in index order, output
            # reversed -- the historical order, bit for bit).
            ptr_l = child_ptr.tolist()
            ci_l = child_idx.tolist()
            out: list[int] = []
            stack: list[int] = [root]
            while stack:
                node = stack.pop()
                out.append(node)
                stack.extend(ci_l[ptr_l[node] : ptr_l[node + 1]])
            if len(out) != n:  # pragma: no cover - caught by the cycle cap
                raise ValueError("parent structure contains a cycle")
            out.reverse()
            porder = np.asarray(out, dtype=np.int64)

        for name, arr in (
            ("_child_ptr", child_ptr),
            ("_child_idx", child_idx),
            ("_depths", depth),
            ("_postorder", porder),
            ("_post_pos", post_pos),
            ("_subtree_sizes", subtree_sizes),
        ):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_parents(
        cls,
        parent: Sequence[int],
        w: Sequence[float] | float = 1.0,
        f: Sequence[float] | float = 1.0,
        sizes: Sequence[float] | float = 0.0,
    ) -> "TaskTree":
        """Build a tree from a parent vector, broadcasting scalar weights.

        ``w``, ``f`` and ``sizes`` may each be a scalar (applied to every
        node) or a per-node sequence.
        """
        n = len(parent)

        def expand(x: Sequence[float] | float) -> np.ndarray:
            if np.isscalar(x):
                return np.full(n, float(x))  # type: ignore[arg-type]
            return np.asarray(x, dtype=np.float64)

        return cls(np.asarray(parent, dtype=np.int64), expand(w), expand(f), expand(sizes))

    @classmethod
    def pebble_game(cls, parent: Sequence[int]) -> "TaskTree":
        """Build a Pebble Game model tree (Section 4): ``f=1, n=0, w=1``."""
        return cls.from_parents(parent, w=1.0, f=1.0, sizes=0.0)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks in the tree."""
        return int(self.parent.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def root(self) -> int:
        """Index of the root task (cached at construction)."""
        return self._root

    @property
    def child_ptr(self) -> np.ndarray:
        """CSR row pointer: children of ``p`` live at
        ``child_idx[child_ptr[p] : child_ptr[p + 1]]`` (read-only)."""
        return self._child_ptr

    @property
    def child_idx(self) -> np.ndarray:
        """CSR children array: every non-root node grouped by parent,
        ascending node order within each group (read-only)."""
        return self._child_idx

    def children(self, i: int) -> np.ndarray:
        """Children of node ``i`` as a zero-copy CSR slice
        (empty array for leaves, ascending node order)."""
        return self._child_idx[self._child_ptr[i] : self._child_ptr[i + 1]]

    def is_leaf(self, i: int) -> bool:
        """True iff node ``i`` has no children."""
        return bool(self._child_ptr[i] == self._child_ptr[i + 1])

    def leaf_mask(self) -> np.ndarray:
        """Boolean mask over all nodes, True at leaves (vectorized)."""
        return self._child_ptr[1:] == self._child_ptr[:-1]

    def leaves(self) -> np.ndarray:
        """Indices of all leaf nodes, ascending."""
        return np.flatnonzero(self.leaf_mask())

    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(self.leaf_mask().sum())

    def degree(self, i: int) -> int:
        """Number of children of node ``i``."""
        return int(self._child_ptr[i + 1] - self._child_ptr[i])

    def max_degree(self) -> int:
        """Maximum number of children over all nodes."""
        return int(np.max(self._child_ptr[1:] - self._child_ptr[:-1]))

    # ------------------------------------------------------------------
    # traversals and aggregates
    # ------------------------------------------------------------------
    def postorder(self) -> np.ndarray:
        """A postorder of the tree (children before parents), cached.

        The order visits children in index order; it is *a* valid
        topological order, not the memory-optimal one (see
        :mod:`repro.sequential.postorder` for that). Computed once at
        construction -- vectorized (subtree-size prefix sums plus a
        pointer-doubling root-path sum) for shallow trees, iteratively
        for the paper's deep trees (depth up to 70 000), so Python's
        recursion limit is never hit. The returned array is the
        read-only cache; copy before mutating.
        """
        return self._postorder

    def postorder_positions(self) -> np.ndarray:
        """Position of every node in :meth:`postorder` (read-only).

        ``postorder_positions()[postorder()] == arange(n)``; with
        index-ordered children, every subtree occupies the contiguous
        position range ``[pos[i] - size[i] + 1, pos[i]]``.
        """
        if self._post_pos is None:
            pos = np.empty(self.n, dtype=np.int64)
            pos[self._postorder] = np.arange(self.n, dtype=np.int64)
            pos.setflags(write=False)
            object.__setattr__(self, "_post_pos", pos)
        return self._post_pos

    def depths(self) -> np.ndarray:
        """Edge-count depth of every node (root has depth 0).

        Pointer doubling: ``O(n log height)`` in fully vectorized
        sweeps; computed once at construction and cached (read-only).
        """
        return self._depths

    def height(self) -> int:
        """Height of the tree in edges (0 for a single node)."""
        return int(self._depths.max())

    def weighted_depths(self) -> np.ndarray:
        """w-weighted path length from each node to the root, inclusive.

        This is the *depth* notion used by ParDeepestFirst (Section 5.3):
        the length includes ``w[i]`` itself, so the deepest node is the
        start of the critical path.
        """
        n = self.n
        depth = self.depths()
        height = int(depth.max()) if n else 0
        if use_level_sweeps(height, n):
            # Level-synchronous: one vectorized gather-add per depth
            # level (each node receives exactly w[i] + wdepth[parent],
            # the same single addition as the sequential sweep).
            order = np.argsort(depth, kind="stable")
            counts = np.bincount(depth, minlength=height + 1)
            wdepth = self.w.copy()
            parent = self.parent
            pos = int(counts[0])  # the depth-0 level is the root alone
            for c in counts[1:]:
                nodes = order[pos : pos + c]
                wdepth[nodes] += wdepth[parent[nodes]]
                pos += c
            return wdepth
        # Deep (chain-like) trees: levels are too narrow for numpy
        # calls to pay off; fall back to the list-based sweep.
        parent_l = self.parent.tolist()
        w = self.w.tolist()
        out = [0.0] * n
        for node in reversed(self._postorder.tolist()):
            p = parent_l[node]
            out[node] = w[node] + (out[p] if p != NO_PARENT else 0.0)
        return np.asarray(out, dtype=np.float64)

    def subtree_work(self) -> np.ndarray:
        """Total processing time of each subtree (``W_i`` in Section 5.1)."""
        parent = self.parent.tolist()
        work = self.w.tolist()
        for node in self._postorder.tolist():
            p = parent[node]
            if p != NO_PARENT:
                work[p] += work[node]
        return np.asarray(work, dtype=np.float64)

    def _subtree_sizes_cached(self) -> np.ndarray:
        """Read-only cached subtree sizes (computed lazily for deep trees)."""
        if self._subtree_sizes is None:
            parent = self.parent.tolist()
            size = [1] * self.n
            for node in self._postorder.tolist():
                p = parent[node]
                if p != NO_PARENT:
                    size[p] += size[node]
            arr = np.asarray(size, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_subtree_sizes", arr)
        return self._subtree_sizes

    def subtree_sizes(self, copy: bool = True) -> np.ndarray:
        """Number of nodes in each subtree (including the subtree root).

        ``copy=False`` returns the read-only cache without the O(n)
        defensive copy (for internal-style hot paths).
        """
        cached = self._subtree_sizes_cached()
        return cached.copy() if copy else cached

    def subtree_nodes(self, i: int) -> np.ndarray:
        """All node indices in the subtree rooted at ``i`` (preorder).

        With index-ordered children the subtree is one contiguous slice
        of the cached postorder; reversing it yields exactly the
        historical DFS preorder (children visited in descending index
        order). O(subtree size), no Python loop.
        """
        pos = self.postorder_positions()
        size = self._subtree_sizes_cached()
        end = int(pos[i])
        start = end - int(size[i]) + 1
        return np.ascontiguousarray(self._postorder[start : end + 1][::-1])

    def critical_path(self) -> float:
        """Length of the w-weighted critical path (root to deepest leaf)."""
        return float(self.weighted_depths().max())

    def total_work(self) -> float:
        """Sum of all processing times (``W`` in the makespan lower bound)."""
        return float(self.w.sum())

    def input_sizes(self) -> np.ndarray:
        """Total input file size of every node (vectorized, cached).

        ``input_sizes()[i]`` equals :math:`\\sum_{j \\in Children(i)} f_j`
        with the children accumulated in ascending node order -- bit for
        bit the sum the historical per-node loop produced. Read-only.
        """
        if self._input_sizes is None:
            mask = self.parent != NO_PARENT
            arr = np.bincount(self.parent[mask], weights=self.f[mask], minlength=self.n)
            arr.setflags(write=False)
            object.__setattr__(self, "_input_sizes", arr)
        return self._input_sizes

    def completion_frees(self) -> np.ndarray:
        """Memory released when each node completes: its execution file
        plus its children's output files (vectorized, cached, read-only).

        Accumulated child-by-child *into* ``sizes`` in ascending node
        order -- ``((n_i + f_{c_1}) + f_{c_2}) \\dots`` -- which is the
        float association the historical per-child loops used, so the
        capped engine's and the simulator's memory trajectories stay
        bit-identical to the seed implementations even for non-integral
        file sizes. (``sizes + input_sizes()`` would associate as
        ``n_i + (f_{c_1} + f_{c_2})`` and drift by an ulp.)
        """
        if self._completion_frees is None:
            arr = self.sizes.copy()
            mask = self.parent != NO_PARENT
            np.add.at(arr, self.parent[mask], self.f[mask])
            arr.setflags(write=False)
            object.__setattr__(self, "_completion_frees", arr)
        return self._completion_frees

    def processing_memory(self, i: int) -> float:
        """Memory needed while node ``i`` executes:
        :math:`\\sum_{j\\in Children(i)} f_j + n_i + f_i`."""
        return float((self.input_sizes()[i] + self.sizes[i]) + self.f[i])

    # ------------------------------------------------------------------
    # derived trees
    # ------------------------------------------------------------------
    def subtree(self, i: int) -> tuple["TaskTree", np.ndarray]:
        """Extract the subtree rooted at ``i`` as a standalone tree.

        Returns the new tree and the array mapping new indices to the
        original node indices. The relabelling is a vectorized scatter
        over :meth:`subtree_nodes` (same node numbering as the
        historical dict-based remap).
        """
        nodes = self.subtree_nodes(i)
        remap = np.empty(self.n, dtype=np.int64)
        remap[nodes] = np.arange(nodes.shape[0], dtype=np.int64)
        parent = remap[self.parent[nodes]]
        parent[0] = NO_PARENT  # nodes[0] == i, the subtree root
        return (
            TaskTree(parent, self.w[nodes], self.f[nodes], self.sizes[nodes]),
            nodes,
        )

    def with_weights(
        self,
        w: Sequence[float] | None = None,
        f: Sequence[float] | None = None,
        sizes: Sequence[float] | None = None,
    ) -> "TaskTree":
        """Return a copy with some weight vectors replaced."""
        return TaskTree(
            self.parent,
            self.w if w is None else np.asarray(w, dtype=np.float64),
            self.f if f is None else np.asarray(f, dtype=np.float64),
            self.sizes if sizes is None else np.asarray(sizes, dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskTree(n={self.n}, height={self.height()}, "
            f"leaves={self.n_leaves()}, W={self.total_work():g})"
        )
