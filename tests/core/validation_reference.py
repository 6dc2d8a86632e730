"""The per-node ``validate_schedule`` loop that
:func:`repro.core.validation.validate_schedule` vectorised, kept verbatim
as the oracle it is tested against (same checks, same first offender,
same message).
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import InvalidScheduleError


def ref_validate_schedule(schedule, tol: float = 1e-9) -> None:
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

    # Precedence: child must finish before parent starts.
    for i in range(tree.n):
        for j in tree.children(i):
            if end[j] > start[i] + tol:
                raise InvalidScheduleError(
                    f"precedence violated: child {j} ends at {end[j]} "
                    f"after parent {i} starts at {start[i]}"
                )

    # Resource: no overlap per processor. Sort once, check neighbours.
    order = np.lexsort((start, schedule.proc))
    for a, b in zip(order[:-1], order[1:]):
        if schedule.proc[a] == schedule.proc[b] and end[a] > start[b] + tol:
            raise InvalidScheduleError(
                f"processor {int(schedule.proc[a])} overlap: task {int(a)} "
                f"[{start[a]}, {end[a]}) and task {int(b)} [{start[b]}, {end[b]})"
            )
