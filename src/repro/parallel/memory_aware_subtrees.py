"""Memory-aware ParSubtrees: spend parallelism only while it fits.

A second answer to the paper's future-work question ("take as input a
cap on the memory usage"), complementary to the list-scheduling variant
of :mod:`repro.parallel.memory_bounded`: keep ParSubtrees's two-phase
structure but choose *how many* subtrees run concurrently from the
memory budget.

The scheduler tries concurrency levels ``q = p, p-1, ..., 2`` -- running
the ``q`` heaviest subtrees of the Algorithm 2 splitting in parallel and
the rest sequentially -- and returns the first schedule whose *measured*
peak fits under the cap. The cheap sum-of-peaks predictor
:func:`predicted_parallel_memory` prunes hopeless levels first; then, on
the compiled library, one pass over the concurrent phase of every
remaining level (:func:`repro.core._ckernel.phase1_peaks`) skips the
levels whose memory already exceeds the cap before their sequential
phase, without building them. That pass measures an exact prefix of
each level's memory profile, so it only ever skips levels the measured
peak would reject, and the chosen schedule is the same bytes. With
``q = 1`` it degenerates to the memory-optimal sequential traversal, so
any ``cap >= M_seq`` is feasible; below that it raises
:class:`~repro.parallel.memory_bounded.MemoryCapError`.
"""

from __future__ import annotations

import numpy as np

from repro.core import _ckernel
from repro.core.engine import resolve_backend
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.simulator import peak_memory
from repro.core.tree import TaskTree
from .memory_bounded import MemoryCapError
from .par_subtrees import (
    SequentialOrder,
    _default_order,
    _orders,
    _pack_schedule,
    _restricted_order,
)

__all__ = ["par_subtrees_memory_aware", "predicted_parallel_memory"]


def predicted_parallel_memory(
    tree: TaskTree | PreparedTree, roots: list[int], q: int
) -> float:
    """Optimistic phase-1 peak predictor for ``q``-way concurrency.

    The ``q`` concurrently active subtrees need at least the sum of the
    ``q`` *smallest* sequential subtree peaks (each subtree's optimal
    postorder peak, read from the prepared tree's cached peaks); any
    concurrency level whose prediction already exceeds the cap cannot
    fit and is pruned without building the schedule.
    """
    prepared = as_prepared(tree)
    peaks = sorted(prepared.subtree_peak(r) for r in roots)
    return float(sum(peaks[:q]))


def _build(prepared, p, orders, full_order):
    """The schedule that runs ``orders`` (one subtree each) concurrently
    on processors ``0, 1, ...`` and the rest of the tree after them."""
    keep = np.zeros(prepared.n, dtype=bool)
    per_proc: list[list[np.ndarray]] = [[] for _ in range(p)]
    for k, order in enumerate(orders):
        per_proc[k].append(order)
        keep[order] = True
    seq_order = _restricted_order(full_order, ~keep)
    return _pack_schedule(prepared.tree, p, per_proc, seq_order)


def _phase1_peaks(prepared: PreparedTree, orders: list[np.ndarray]):
    """Entry ``q - 1``: the peak of the concurrency-``q`` schedule
    before its sequential phase starts, a lower bound of its measured
    peak (exact: that phase's events all come at or after the end of
    the concurrent one, so these instants are a prefix of its memory
    profile). None without the compiled library or where it declines."""
    if resolve_backend() != "c":
        return None
    tree = prepared.tree
    group_end = np.cumsum([len(order) for order in orders], dtype=np.int64)
    return _ckernel.phase1_peaks(
        np.concatenate(orders),
        group_end,
        tree.w,
        tree.start_allocs(),
        tree.completion_frees(),
    )


def par_subtrees_memory_aware(
    tree: TaskTree | PreparedTree,
    p: int,
    cap: float,
    sequential_order: SequentialOrder = _default_order,
) -> Schedule:
    """ParSubtrees constrained to a memory budget (see module docstring).

    The splitting, the subtree peaks and (for the default
    ``sequential_order``) the subtree orders come from the prepared
    caches.

    Raises
    ------
    MemoryCapError
        when even the fully sequential fallback exceeds ``cap`` (i.e.
        ``cap`` is below the sequential optimum of ``sequential_order``).
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    prepared = as_prepared(tree)
    roots = list(prepared.split(p).frontier_roots)
    order_of, full_order = _orders(prepared, sequential_order)
    # the highest level the predictor lets through; it sums the q
    # smallest (non-negative) peaks, so every lower level passes it too
    qtop = min(p, len(roots))
    while qtop > 1 and predicted_parallel_memory(prepared, roots, qtop) > cap:
        qtop -= 1
    work = prepared.subtree_work()
    # level q runs the q heaviest subtrees (a stable sort: ties by split order)
    heaviest = sorted(roots, key=lambda r: float(work[r]), reverse=True)
    orders = [order_of(r) for r in heaviest[:qtop]] if qtop > 1 else []
    # one pass over every level's concurrent phase; with qtop <= 2 there
    # is a single level to build, so the pass would save nothing
    prefix = _phase1_peaks(prepared, orders) if qtop > 2 else None
    for q in range(qtop, 1, -1):
        if prefix is not None and prefix[q - 1] > cap + 1e-9:
            continue  # its measured peak would exceed the cap too
        schedule = _build(prepared, p, orders[:q], full_order)
        if peak_memory(schedule) <= cap + 1e-9:
            return schedule
    schedule = Schedule.sequential(prepared.tree, full_order, p)
    peak = peak_memory(schedule)
    if peak > cap + 1e-9:
        raise MemoryCapError(
            f"cap {cap:g} below the sequential optimum {peak:g}: infeasible"
        )
    return schedule
