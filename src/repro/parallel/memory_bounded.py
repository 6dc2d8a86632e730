"""Memory-capped list scheduling -- the paper's future-work extension.

The conclusion of the paper calls for "scheduling algorithms that take
as input a cap on the memory usage". This module configures the unified
event-driven engine (:class:`repro.core.engine.SchedulerEngine`) with
memory accounting so that the resident memory never exceeds a user cap,
built around an *activation order* :math:`\\sigma` (a sequential
traversal, by default the memory-optimal postorder):

* **strict mode** -- tasks *start* exactly in :math:`\\sigma` order; a
  task launches as soon as a processor is free and the allocation fits
  under the cap. When nothing is running, the resident memory equals the
  sequential state of :math:`\\sigma` before the next task, so any cap at
  least the sequential peak of :math:`\\sigma` is guaranteed feasible
  (deadlock-free) -- property-tested.
* **opportunistic mode** -- any ready task may start provided it fits,
  preferring the earliest in :math:`\\sigma`; more parallelism, but
  out-of-order residue can exceed the sequential state and make a tight
  cap infeasible, in which case :class:`MemoryCapError` is raised.

Both modes trade makespan for memory: sweeping the cap between
``M_seq`` and ``(p+1) M_seq`` traces the memory/makespan trade-off curve
(see ``benchmarks/bench_memory_cap.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import MemoryCapError, SchedulerEngine
from repro.core.prepared import PreparedTree, tree_of
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["MemoryCapError", "memory_bounded_schedule"]


def memory_bounded_schedule(
    tree: TaskTree | PreparedTree,
    p: int,
    cap: float,
    order: np.ndarray | None = None,
    mode: str = "strict",
) -> Schedule:
    """Schedule ``tree`` on ``p`` processors under a peak-memory cap.

    Parameters
    ----------
    tree, p:
        the instance (``tree`` bare or prepared; with a prepared tree
        the default activation order and its rank permutation are
        derived once and shared across every ``(p, cap)`` combination).
    cap:
        the memory budget; the returned schedule's peak never exceeds it.
    order:
        activation order :math:`\\sigma` (default: optimal postorder).
        With ``mode="strict"`` any ``cap >= traversal peak of order`` is
        feasible.
    mode:
        ``"strict"`` or ``"opportunistic"`` (see module docstring).

    Raises
    ------
    MemoryCapError
        if the scheduler gets stuck: no running task and no startable
        task fits under the cap.
    """
    if isinstance(tree, PreparedTree) and (
        order is None
        or (
            tree.optimal_computed is not None
            and order is tree.optimal_computed.order
        )
    ):
        # The sigma rank (and its inverse) comes from the prepared
        # cache; the activation order is the shared optimal postorder.
        # (A custom order never triggers the optimal computation: the
        # identity check only consults the already-computed cache.)
        order = np.asarray(tree.optimal().order, dtype=np.int64)
        rank = tree.sigma_rank()
    else:
        if order is None:
            from repro.sequential.postorder import optimal_postorder

            order = optimal_postorder(tree_of(tree)).order
        order = np.asarray(order, dtype=np.int64)
        # The ready queue is prioritised by sigma rank in both modes.
        rank = np.empty(tree_of(tree).n, dtype=np.int64)
        rank[order] = np.arange(tree_of(tree).n)
    return SchedulerEngine(tree, p, rank, cap=cap, order=order, mode=mode).run()
