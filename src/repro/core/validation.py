"""Validation of schedules against the model of Section 3.

A schedule is *valid* when

1. every task starts only after all of its children completed
   (the tree is an in-tree: inputs are the children's output files),
2. no processor executes two tasks at once,
3. every task is assigned to an existing processor ``0 <= proc < p``.

Validation failures raise :class:`InvalidScheduleError` with a message
naming the offending tasks, which makes property-test shrinking output
readable.
"""

from __future__ import annotations

import numpy as np

from .schedule import Schedule

__all__ = ["InvalidScheduleError", "validate_schedule"]


class InvalidScheduleError(ValueError):
    """Raised when a schedule violates precedence or resource constraints."""


def validate_schedule(schedule: Schedule, tol: float = 1e-9) -> None:
    """Check the three validity conditions, raising on the first violation.

    Parameters
    ----------
    schedule:
        the schedule to check.
    tol:
        numerical slack for comparing floating-point times; a child may
        complete up to ``tol`` after its parent starts without raising.
    """
    tree = schedule.tree
    start = schedule.start
    end = schedule.end

    if np.any(schedule.proc < 0) or np.any(schedule.proc >= schedule.p):
        bad = int(np.flatnonzero((schedule.proc < 0) | (schedule.proc >= schedule.p))[0])
        raise InvalidScheduleError(
            f"task {bad} assigned to processor {int(schedule.proc[bad])} "
            f"outside 0..{schedule.p - 1}"
        )
    if np.any(start < -tol):
        bad = int(np.flatnonzero(start < -tol)[0])
        raise InvalidScheduleError(f"task {bad} starts at negative time {start[bad]}")

    # Precedence: child must finish before parent starts. The CSR child
    # order (parents ascending, each one's children ascending) makes the
    # first offender the one a parent-by-parent scan meets first.
    kids = tree.child_idx
    late = np.flatnonzero(end[kids] > start[tree.parent[kids]] + tol)
    if late.shape[0]:
        j = kids[late[0]]
        i = tree.parent[j]
        raise InvalidScheduleError(
            f"precedence violated: child {j} ends at {end[j]} "
            f"after parent {i} starts at {start[i]}"
        )

    # Resource: no overlap per processor. Sort once, check neighbours
    # (ties in start by end, so a zero-length task that finished at the
    # instant the next one started on its processor sorts before it).
    order = np.lexsort((end, start, schedule.proc))
    a, b = order[:-1], order[1:]
    clash = np.flatnonzero(
        (schedule.proc[a] == schedule.proc[b]) & (end[a] > start[b] + tol)
    )
    if clash.shape[0]:
        a, b = a[clash[0]], b[clash[0]]
        raise InvalidScheduleError(
            f"processor {int(schedule.proc[a])} overlap: task {int(a)} "
            f"[{start[a]}, {end[a]}) and task {int(b)} [{start[b]}, {end[b]})"
        )


def is_valid(schedule: Schedule, tol: float = 1e-9) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, tol=tol)
    except InvalidScheduleError:
        return False
    return True
