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
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree
from .list_scheduling import postorder_ranks

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
        the instance.
    cap:
        the memory budget; the returned schedule's peak never exceeds it.
    order:
        activation order :math:`\\sigma` (default: optimal postorder,
        served with its rank from the prepared tree's cache). With
        ``mode="strict"`` any ``cap >= traversal peak of order`` is
        feasible.
    mode:
        ``"strict"`` or ``"opportunistic"`` (see module docstring).

    Raises
    ------
    MemoryCapError
        if the scheduler gets stuck: no running task and no startable
        task fits under the cap.
    """
    prepared = as_prepared(tree)
    # The ready queue is prioritised by sigma rank in both modes; the
    # engine defaults sigma itself to the optimal postorder.
    rank = postorder_ranks(prepared, order)
    return SchedulerEngine(prepared, p, rank, cap=cap, order=order, mode=mode).run()
