"""Event-sweep simulator: exact peak memory and makespan of a schedule.

The memory accounting follows Section 3.1 of the paper exactly:

* when task ``i`` **starts**, its execution file ``n_i`` and its output
  file ``f_i`` are allocated (its input files -- the outputs of its
  children -- are already resident);
* when task ``i`` **completes**, its execution file ``n_i`` and all of its
  input files :math:`\\{f_j : j \\in Children(i)\\}` are freed; the output
  ``f_i`` stays resident until the *parent* of ``i`` completes;
* the root's output remains allocated through the end of the schedule.

At identical timestamps, completions are applied before starts. This is
the convention of the paper's step-based schedules (e.g. the
NP-completeness gadget of Section 4.1, where step ``2n+1`` reuses the
memory freed at the end of step ``2n``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _ckernel
from .engine import resolve_backend
from .schedule import Schedule
from .tree import TaskTree
from .validation import validate_schedule

__all__ = ["SimulationResult", "simulate", "peak_memory", "memory_profile"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating a schedule.

    Attributes
    ----------
    makespan:
        completion time of the last task (the root, for valid schedules).
    peak_memory:
        maximum total resident file size over the whole execution.
    times / memory:
        the piecewise-constant memory profile: ``memory[k]`` is the
        resident size in ``[times[k], times[k+1])``.
    """

    makespan: float
    peak_memory: float
    times: np.ndarray
    memory: np.ndarray


def _memory_events(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Return (times, deltas) of all allocation/free events.

    Free events carry phase 0 and allocation events phase 1 so that a
    stable sort applies frees first at equal timestamps.
    """
    tree = schedule.tree
    n = tree.n
    start = schedule.start
    end = schedule.end
    # Each task contributes one allocation event (n_i + f_i at start) and
    # one free event (n_i + sum of children f at end).
    alloc = tree.sizes + tree.f
    freed = tree.completion_frees()
    times = np.concatenate([end, start])
    phases = np.concatenate([np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)])
    deltas = np.concatenate([-freed, alloc])
    order = np.lexsort((phases, times))
    return times[order], deltas[order]


def memory_profile(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant memory profile of a schedule.

    Returns ``(times, memory)`` where ``memory[k]`` holds on
    ``[times[k], times[k+1])``. Events at the same timestamp are merged,
    with frees applied before allocations.

    Computed on the compiled library (:func:`repro.core._ckernel.memory_profile`)
    when this process dispatches to it
    (:func:`repro.core.engine.resolve_backend`), else -- and whenever
    the library declines a schedule -- by
    :func:`_memory_profile_reference`. Both return the same bytes.
    """
    if resolve_backend() == "c":
        profile = _memory_profile_compiled(schedule)
        if profile is not None:
            return profile
    return _memory_profile_reference(schedule)


def _memory_profile_compiled(schedule: Schedule):
    """The profile on the C library, or None where it declines (a
    non-finite start, a failed allocation)."""
    tree = schedule.tree
    return _ckernel.memory_profile(
        schedule.start, tree.w, tree.sizes + tree.f, tree.completion_frees()
    )


def _memory_profile_reference(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """The numpy memory profile: the fallback of :func:`memory_profile`
    and the oracle of its compiled path."""
    times, deltas = _memory_events(schedule)
    levels = np.cumsum(deltas)
    # Merge runs of equal timestamps keeping the *last* level (frees were
    # sorted first, so intermediate levels at the same instant are
    # transient bookkeeping, not real states).
    keep = np.ones(times.shape[0], dtype=bool)
    keep[:-1] = times[1:] != times[:-1]
    return times[keep], levels[keep]


def peak_memory(schedule: Schedule) -> float:
    """Peak resident memory of a schedule.

    The peak is the maximum level reached *between* event groups; the
    within-instant transient of a simultaneous free+allocation does not
    count, matching the step semantics of the paper.
    """
    _, levels = memory_profile(schedule)
    if levels.shape[0] == 0:
        return 0.0
    return float(levels.max())


def simulate(schedule: Schedule, validate: bool = True) -> SimulationResult:
    """Simulate a schedule: validate it and measure makespan and memory.

    Parameters
    ----------
    schedule:
        the schedule to evaluate.
    validate:
        when True (default), raise
        :class:`~repro.core.validation.InvalidScheduleError` if the
        schedule violates precedence or processor constraints.
    """
    if validate:
        validate_schedule(schedule)
    times, levels = memory_profile(schedule)
    peak = float(levels.max()) if levels.shape[0] else 0.0
    return SimulationResult(
        makespan=schedule.makespan,
        peak_memory=peak,
        times=times,
        memory=levels,
    )


def sequential_peak_memory(tree: TaskTree, order) -> float:
    """Peak memory of executing ``order`` sequentially.

    Convenience wrapper: builds the back-to-back one-processor schedule
    and measures it. Equivalent to, and cross-checked in tests against,
    the direct traversal evaluation in
    :func:`repro.sequential.traversal.traversal_peak_memory`.
    """
    return peak_memory(Schedule.sequential(tree, order))
