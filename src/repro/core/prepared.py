"""Per-tree preparation bundle shared across engine runs.

The paper's experimental story sweeps many schedulers over the *same*
tree while varying the processor count and the memory cap. Every one of
those runs derives the identical state from the :class:`TaskTree`:

* the CSR child counts the sweep kernels count down (``pending``),
* the memory columns (``alloc = sizes + f`` acquired at start,
  ``completion_frees`` released at completion),
* the memory-optimal sequential postorder (ParInnerFirst's leaf order,
  ParDeepestFirst's tie-break, the capped modes' activation order, and
  the memory lower bound of every record),
* the per-algorithm priority rank permutations (one ``lex_rank`` sweep
  each -- identical for every ``p`` and every cap),
* the reference loop's list conversions of the per-node arrays, and
* the subtree family's state (ParSubtrees, ParSubtreesOptim,
  MemoryAwareSubtrees): the subtree work ``W_i``, Algorithm 2's
  splitting per ``p`` (its ``p``-independent pop sequence computed
  once), and one descending-tie optimal postorder whose contiguous
  slices are every subtree's optimal postorder, with every subtree's
  optimal peak -- in place of extracting each subtree and re-running
  the traversal on it.

:class:`PreparedTree` computes each of these **once** (lazily, on first
use) and hands the same typed, read-only buffers to every subsequent
engine run, so an (algorithm x p x cap) grid pays the per-tree
preparation a single time and the per-scenario cost collapses to the
event sweep itself. Everything cached here is a pure function of the
tree, so a schedule never depends on how often its bundle was reused
-- pinned by the golden tests in ``tests/core/test_prepared.py`` /
``tests/core/test_backends.py``.

:class:`PreparedTree` is the one input form of the parallel
algorithms: every engine entry point
(:class:`~repro.core.engine.SchedulerEngine`, the list heuristics'
rank builders, ``memory_bounded_schedule``) and the subtree family
call :func:`as_prepared` once on their ``tree`` argument (so a bare
:class:`TaskTree` still works, prepared on the fly), and
``registry.Algorithm.run`` hands every parallel algorithm the prepared
tree. The sequential traversals take the underlying tree
(:func:`tree_of`).

A :class:`PreparedTree` is cheap to construct (everything is lazy); it
only pays off when reused, which is what the campaign runner
(:mod:`repro.analysis.campaign`) does: group scenarios by tree, prepare
once per worker, sweep many times.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from .tree import TaskTree

__all__ = ["PreparedTree", "as_prepared", "stack_unique", "tree_of"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it (cache hygiene)."""
    arr.setflags(write=False)
    return arr


def stack_unique(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-scenario rows deduplicated by array identity.

    The megabatch kernel spec takes per-scenario *ids* into shared row
    stacks (rank permutations, activation orders) rather than one row
    per scenario: grids reuse a handful of arrays cached on the
    prepared bundle, so identity dedup keeps the stacks tiny.

    Returns ``(stack, ids)`` where ``ids[i]`` is the row index of
    ``rows[i]`` in ``stack``, or ``-1`` where ``rows[i]`` is None (an
    uncapped scenario has no activation order). When every row is None
    the stack is a ``(1, 0)`` int64 dummy, so kernels can still slice
    an empty row of it.
    """
    ids = np.empty(len(rows), dtype=np.int64)
    unique: list[np.ndarray] = []
    index: dict[int, int] = {}
    for i, row in enumerate(rows):
        if row is None:
            ids[i] = -1
            continue
        k = index.get(id(row))
        if k is None:
            k = len(unique)
            index[id(row)] = k
            unique.append(row)
        ids[i] = k
    if unique:
        stack = np.ascontiguousarray(np.stack(unique))
    else:
        stack = np.zeros((1, 0), dtype=np.int64)
    return stack, ids


class PreparedTree:
    """Frozen bundle of everything the engine derives from a tree.

    Parameters
    ----------
    tree:
        the task tree to prepare. Construction is O(1); every derived
        quantity is computed lazily on first use and cached for the
        lifetime of the bundle.

    Caches: the sweep columns (:attr:`pending0`, :attr:`alloc`,
    :attr:`free_on_end`), the exactness flags, :meth:`optimal` (with its
    per-subtree peaks), :meth:`sigma_rank`, :meth:`weighted_depths`,
    the priority ranks of :meth:`rank_for` with their inverses, the
    reference loop's lists, and for the subtree family
    :meth:`subtree_work`, :meth:`split` (one plan, one result per
    ``p``) and the descending-tie optimal postorder behind
    :meth:`subtree_order` / :meth:`subtree_peak`.

    Notes
    -----
    The cached arrays are read-only and shared by reference across
    runs. The sweep kernels copy the pristine ``pending0`` column into
    their own scratch inside each call, so runs never observe each
    other and one bundle is safe to sweep from concurrent threads.
    """

    __slots__ = (
        "tree",
        "_pending0",
        "_optimal",
        "_postorders",
        "_sigma_rank",
        "_wdepths",
        "_exactness",
        "_ranks",
        "_byranks",
        "_lists",
        "_ready_leaf_ranks_cache",
        "_work",
        "_subtree_peaks",
        "_subtree_pos",
        "_subtree_order",
        "_split_plan",
        "_splits",
    )

    def __init__(self, tree: TaskTree) -> None:
        if not isinstance(tree, TaskTree):
            raise TypeError(f"PreparedTree wraps a TaskTree, got {type(tree).__name__}")
        self.tree = tree
        self._pending0 = None
        self._optimal = None
        self._postorders: dict[bool, tuple[np.ndarray, np.ndarray]] = {}
        self._sigma_rank = None
        self._wdepths = None
        self._exactness = None
        self._ranks: dict[Hashable, np.ndarray] = {}
        self._byranks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lists: dict[str, list] = {}
        self._work = None
        self._subtree_peaks = None
        self._subtree_pos = None
        self._subtree_order = None
        self._split_plan = None
        self._splits: dict[int, object] = {}

    # ------------------------------------------------------------------
    # typed sweep columns (shared read-only across runs)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tasks in the underlying tree."""
        return self.tree.n

    @property
    def pending0(self) -> np.ndarray:
        """Pristine per-node child counts (``np.diff(child_ptr)``),
        read-only; the sweep kernels count down a private copy."""
        if self._pending0 is None:
            self._pending0 = _frozen(
                np.ascontiguousarray(np.diff(self.tree.child_ptr))
            )
        return self._pending0

    @property
    def alloc(self) -> np.ndarray:
        """Memory acquired when each task starts (``sizes + f``; cached
        on the tree itself, already read-only)."""
        return self.tree.start_allocs()

    @property
    def free_on_end(self) -> np.ndarray:
        """Memory released when each task completes (cached on the
        tree itself, already read-only)."""
        return self.tree.completion_frees()

    # ------------------------------------------------------------------
    # exactness flags (pure functions of the weight column)
    # ------------------------------------------------------------------
    def _exactness_flags(self) -> tuple[bool, bool]:
        if self._exactness is None:
            w = self.tree.w
            wsum = float(w.sum())
            int_keys = bool(
                np.all(np.isfinite(w))
                and np.all(np.floor(w) == w)
                and wsum * self.tree.n < 2**62
            )
            kernel_exact = (not int_keys) or wsum < 2**53
            self._exactness = (int_keys, kernel_exact)
        return self._exactness

    @property
    def int_keys(self) -> bool:
        """True when the reference loop can use exact integer event
        keys (integral weights, total * n below 2**62)."""
        return self._exactness_flags()[0]

    @property
    def kernel_exact(self) -> bool:
        """True when the C kernel's float64 event keys are exactly
        equivalent to the reference loop's encoding."""
        return self._exactness_flags()[1]

    # ------------------------------------------------------------------
    # shared sequential preprocessing
    # ------------------------------------------------------------------
    def optimal(self):
        """Liu's memory-optimal postorder of the tree, computed once.

        This single cache carries most of the grid win: the optimal
        postorder is the reference order of ParInnerFirst and
        ParDeepestFirst, the default activation order and cap baseline
        of the memory-bounded modes, and the memory lower bound of
        every experiment record.
        """
        if self._optimal is None:
            from repro.sequential.traversal import TraversalResult

            peaks, order = self._postorder(descending_ties=False)
            self._optimal = TraversalResult(
                order=order, peak_memory=float(peaks[self.tree.root])
            )
        return self._optimal

    def _postorder(self, descending_ties: bool) -> tuple[np.ndarray, np.ndarray]:
        """Liu's ``(peaks, order)`` for one tie order (see
        :func:`~repro.sequential.postorder.optimal_postorders`), cached;
        the compiled library fills both tie orders in one call."""
        hit = self._postorders.get(descending_ties)
        if hit is None:
            from repro.sequential.postorder import optimal_postorders

            for ties, (peaks, order) in optimal_postorders(
                self.tree, (descending_ties,)
            ).items():
                self._postorders.setdefault(ties, (_frozen(peaks), order))
            hit = self._postorders[descending_ties]
        return hit

    def sigma_rank(self) -> np.ndarray:
        """Rank of every node in the optimal postorder (read-only).

        ``sigma_rank()[optimal().order] == arange(n)`` -- the priority
        permutation of the memory-bounded modes and the shared
        tie-break column of the list heuristics.
        """
        if self._sigma_rank is None:
            order = self.optimal().order
            rank = np.empty(self.tree.n, dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                self.tree.n, dtype=np.int64
            )
            self._sigma_rank = self._adopt_rank(_frozen(rank))
        return self._sigma_rank

    def weighted_depths(self) -> np.ndarray:
        """w-weighted root-path length per node (cached, read-only);
        the key column of ParDeepestFirst and the critical path."""
        if self._wdepths is None:
            self._wdepths = _frozen(self.tree.weighted_depths())
        return self._wdepths

    def memory_lower_bound(self) -> float:
        """The paper's sequential memory lower bound (optimal postorder
        peak), from the shared cache."""
        return self.optimal().peak_memory

    def makespan_lower_bound(self, p: int) -> float:
        """``max(W / p, CP)`` with the total work and critical path read
        from the prepared caches (bit-identical to the unprepared
        computation)."""
        if p < 1:
            raise ValueError("p must be positive")
        return max(float(self.tree.w.sum()) / p, float(self.weighted_depths().max()))

    # ------------------------------------------------------------------
    # subtree family (ParSubtrees, ParSubtreesOptim, MemoryAwareSubtrees)
    # ------------------------------------------------------------------
    def subtree_work(self) -> np.ndarray:
        """Total work ``W_i`` of every subtree (cached, read-only)."""
        if self._work is None:
            self._work = _frozen(self.tree.subtree_work())
        return self._work

    def _subtree_postorder(self) -> None:
        """The descending-tie optimal postorder (see
        :func:`~repro.sequential.postorder.optimal_postorders`): its
        peaks and order serve every subtree of the tree."""
        peaks, order = self._postorder(descending_ties=True)
        pos = np.empty(self.tree.n, dtype=np.int64)
        pos[order] = np.arange(self.tree.n, dtype=np.int64)
        # the order is what subtree_order() tests, so it is published last
        self._subtree_peaks = peaks
        self._subtree_pos = _frozen(pos)
        self._subtree_order = _frozen(order)

    def subtree_order(self, r: int) -> np.ndarray:
        """Optimal postorder of the subtree rooted at ``r``, in original
        node indices: exactly ``nodes[optimal_postorder(sub).order]``
        for ``sub, nodes = tree.subtree(r)``, served as a read-only
        slice of one cached global order instead of an extraction."""
        if self._subtree_order is None:
            self._subtree_postorder()
        end = int(self._subtree_pos[r]) + 1
        return self._subtree_order[end - int(self.tree.subtree_sizes(copy=False)[r]) : end]

    def subtree_peak(self, r: int) -> float:
        """Optimal postorder peak of the subtree rooted at ``r`` (equal to
        ``optimal_postorder(tree.subtree(r)[0]).peak_memory``)."""
        if self._subtree_peaks is None:
            self._subtree_postorder()
        return float(self._subtree_peaks[r])

    def split(self, p: int):
        """Algorithm 2's minimum-cost splitting for ``p`` processors
        (:class:`~repro.parallel.split_subtrees.SplitResult`), cached per
        ``p``; the ``p``-independent pop sequence is computed once."""
        res = self._splits.get(p)
        if res is None:
            from repro.parallel.split_subtrees import SplitPlan

            if self._split_plan is None:
                self._split_plan = SplitPlan(self.tree, self.subtree_work())
            res = self._splits[p] = self._split_plan.split(p)
        return res

    # ------------------------------------------------------------------
    # per-algorithm priority-rank cache
    # ------------------------------------------------------------------
    def rank_for(
        self, key: Hashable, builder: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The priority rank permutation for priority spec ``key``.

        ``builder`` runs once per key; the resulting rank is frozen,
        its inverse permutation is precomputed (so the engine skips the
        per-run ``byrank`` scatter), and every later request returns
        the same array. Keys identify the *priority spec* -- the
        registry name of the heuristic.
        """
        rank = self._ranks.get(key)
        if rank is None:
            rank = np.ascontiguousarray(builder(), dtype=np.int64)
            self._ranks[key] = self._adopt_rank(_frozen(rank))
            rank = self._ranks[key]
        return rank

    def _adopt_rank(self, rank: np.ndarray) -> np.ndarray:
        """Register ``rank`` with the byrank cache (inverse permutation
        computed once, keyed by object identity).

        The entry holds ``rank`` itself: two threads racing on a cold
        cache may each adopt their own array, and the loser must stay
        alive so that its id is never reused by an unrelated array.
        """
        if id(rank) not in self._byranks:
            byrank = np.empty(self.tree.n, dtype=np.int64)
            byrank[rank] = np.arange(self.tree.n, dtype=np.int64)
            self._byranks[id(rank)] = (rank, _frozen(byrank))
        return rank

    def byrank_for(self, rank: np.ndarray) -> np.ndarray | None:
        """Cached inverse permutation of ``rank``, or None when ``rank``
        was not produced by this bundle (the engine then computes its
        own, exactly as before)."""
        entry = self._byranks.get(id(rank))
        return None if entry is None else entry[1]

    # ------------------------------------------------------------------
    # reference-loop list caches
    # ------------------------------------------------------------------
    def _list(self, key: str, make: Callable[[], list]) -> list:
        lst = self._lists.get(key)
        if lst is None:
            lst = make()
            self._lists[key] = lst
        return lst

    def parent_list(self) -> list:
        """``tree.parent.tolist()``, converted once (the reference
        loop reads per-node arrays as Python lists)."""
        return self._list("parent", self.tree.parent.tolist)

    def w_list(self) -> list:
        """Durations as a list -- int when the engine uses integer event
        keys, float otherwise (same values either way)."""
        if self.int_keys:
            return self._list("w_int", lambda: self.tree.w.astype(np.int64).tolist())
        return self._list("w_float", self.tree.w.tolist)

    def alloc_list(self) -> list:
        """``(sizes + f).tolist()``, converted once."""
        return self._list("alloc", self.alloc.tolist)

    def free_list(self) -> list:
        """``completion_frees().tolist()``, converted once."""
        return self._list("free", self.free_on_end.tolist)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = [
            name
            for name, slot in (
                ("pending", self._pending0),
                ("optimal", self._optimal),
                ("wdepths", self._wdepths),
            )
            if slot is not None
        ]
        return (
            f"PreparedTree(n={self.tree.n}, ranks={sorted(map(str, self._ranks))}, "
            f"cached={cached})"
        )


def as_prepared(tree: TaskTree | PreparedTree) -> PreparedTree:
    """Wrap ``tree`` in a :class:`PreparedTree` (pass-through when it
    already is one). A fresh wrapper shares no caches: reuse one
    prepared tree to amortize its derivations across calls."""
    if isinstance(tree, PreparedTree):
        return tree
    return PreparedTree(tree)


def tree_of(tree: TaskTree | PreparedTree) -> TaskTree:
    """The underlying :class:`TaskTree` of either input form."""
    if isinstance(tree, PreparedTree):
        return tree.tree
    return tree
