"""Memory-capped list scheduling -- the paper's future-work extension.

The conclusion of the paper calls for "scheduling algorithms that take
as input a cap on the memory usage". This module configures the unified
event-driven engine (:class:`repro.core.engine.SchedulerEngine`) with
memory accounting so that the resident memory never exceeds a user cap,
built around an *activation order* :math:`\\sigma`, the memory-optimal
sequential postorder: tasks *start* exactly in :math:`\\sigma` order,
each as soon as a processor is free and its allocation fits under the
cap. When nothing is running, the resident memory equals the sequential
state of :math:`\\sigma` before the next task, so any cap at least the
sequential peak of :math:`\\sigma` is guaranteed feasible
(deadlock-free) -- property-tested. Below it the scheduler may get
stuck, raising :class:`MemoryCapError`.

The cap trades makespan for memory: sweeping it between ``M_seq`` and
``(p+1) M_seq`` traces the memory/makespan trade-off curve (see
``benchmarks/bench_memory_cap.py``). The registry's ``MemoryBounded``
entry takes the cap as a factor of ``M_seq``
(:func:`memory_bounded_spec`); :func:`memory_bounded_schedule` takes an
absolute cap. Both build their scenario with :func:`capped_scenario`.
"""

from __future__ import annotations

from repro.core.engine import BatchScenario, MemoryCapError
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = [
    "MemoryCapError",
    "capped_scenario",
    "memory_bounded_schedule",
    "memory_bounded_spec",
]


def capped_scenario(tree: PreparedTree, p: int, cap: float) -> BatchScenario:
    """The engine scenario of memory-capped list scheduling under the
    absolute ``cap``: the rank of the shared optimal postorder, which
    the capped engine takes as the activation order :math:`\\sigma`."""
    return BatchScenario(rank=tree.sigma_rank(), p=p, cap=cap)


def memory_bounded_spec(tree: PreparedTree, p: int, cap_factor: float = 2.0) -> BatchScenario:
    """Sweep spec of the registry's ``MemoryBounded``: the cap is
    ``cap_factor`` x the sequential optimal-postorder peak (the natural
    scale-free parameterisation)."""
    return capped_scenario(tree, p, cap_factor * tree.optimal().peak_memory)


def memory_bounded_schedule(tree: TaskTree | PreparedTree, p: int, cap: float) -> Schedule:
    """Schedule ``tree`` on ``p`` processors under a peak-memory cap.

    Parameters
    ----------
    tree, p:
        the instance.
    cap:
        the memory budget; the returned schedule's peak never exceeds
        it. Any ``cap >= M_seq`` (the optimal postorder's peak, the
        activation order's) is feasible.

    Raises
    ------
    MemoryCapError
        if the scheduler gets stuck: no running task and no startable
        task fits under the cap.
    """
    prepared = as_prepared(tree)
    return capped_scenario(prepared, p, cap).engine(prepared).run()
