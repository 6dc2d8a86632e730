"""Schedule representation for parallel tree processing.

A :class:`Schedule` maps every task of a :class:`~repro.core.tree.TaskTree`
to a start time and a processor. Peak memory and makespan of a schedule are
computed by the simulator (:mod:`repro.core.simulator`); this module only
holds the assignment and cheap derived quantities, plus a Gantt-style
text rendering used by the examples.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tree import TaskTree

__all__ = ["Schedule", "ScheduledTask", "processor_count"]


def processor_count(p) -> int:
    """``p`` as a processor count: a positive integer (``numpy`` integers
    included), never a float or a boolean. :class:`Schedule`, the
    engine, the registry and campaigns all validate ``p`` here, so
    ``2.5`` or ``True`` cannot silently run on 2 or 1 processors."""
    if isinstance(p, numbers.Integral) and not isinstance(p, bool) and p >= 1:
        return int(p)
    raise ValueError(
        f"p must be a positive integer (at least one processor), got {p!r}"
    )


@dataclass(frozen=True)
class ScheduledTask:
    """One row of a schedule: task ``node`` runs on ``proc`` during
    ``[start, start + w)``."""

    node: int
    proc: int
    start: float
    end: float


@dataclass(frozen=True)
class Schedule:
    """Assignment of every task to a (processor, start time) pair.

    Parameters
    ----------
    tree:
        the task tree being scheduled.
    start:
        ``start[i]`` is the start time of task ``i``.
    proc:
        ``proc[i]`` is the processor executing task ``i`` (0-based).
    p:
        number of processors of the platform, a positive integer
        (``max(proc)+1`` may be smaller when some processors stay idle).
    """

    tree: TaskTree
    start: np.ndarray
    proc: np.ndarray
    p: int

    def __post_init__(self) -> None:
        start = np.ascontiguousarray(np.asarray(self.start, dtype=np.float64))
        proc = np.ascontiguousarray(np.asarray(self.proc, dtype=np.int64))
        if start.shape[0] != self.tree.n or proc.shape[0] != self.tree.n:
            raise ValueError("start/proc must have one entry per task")
        object.__setattr__(self, "p", processor_count(self.p))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "proc", proc)

    # ------------------------------------------------------------------
    @property
    def end(self) -> np.ndarray:
        """Completion time of every task."""
        return self.start + self.tree.w

    @property
    def makespan(self) -> float:
        """Total execution time: completion time of the last task.

        For a valid schedule the last task is the root (all other tasks
        precede it), so this equals the paper's makespan definition.
        """
        return float(self.end.max())

    def tasks(self) -> list[ScheduledTask]:
        """All tasks as :class:`ScheduledTask` rows sorted by start time."""
        end = self.end
        rows = [
            ScheduledTask(i, int(self.proc[i]), float(self.start[i]), float(end[i]))
            for i in range(self.tree.n)
        ]
        rows.sort(key=lambda t: (t.start, t.proc, t.node))
        return rows

    def processor_tasks(self, proc: int) -> list[ScheduledTask]:
        """Tasks assigned to one processor, sorted by start time."""
        return [t for t in self.tasks() if t.proc == proc]

    def order(self) -> np.ndarray:
        """Global task order by start time (ties broken by node index).

        For ``p = 1`` this is the sequential traversal the schedule
        realises.
        """
        keys = np.lexsort((np.arange(self.tree.n), self.start))
        return keys

    # ------------------------------------------------------------------
    @classmethod
    def sequential(cls, tree: TaskTree, order: Iterable[int], p: int = 1) -> "Schedule":
        """Build the schedule that executes ``order`` back-to-back on
        processor 0 of a ``p``-processor platform.

        ``order`` must be a topological order of ``tree`` (validated by
        :func:`repro.core.validation.validate_schedule` / the simulator).
        """
        order = np.asarray(list(order), dtype=np.int64)
        if order.shape[0] != tree.n:
            raise ValueError("order must contain every task exactly once")
        start = np.empty(tree.n, dtype=np.float64)
        t = 0.0
        for node in order:
            start[node] = t
            t += tree.w[node]
        return cls(tree, start, np.zeros(tree.n, dtype=np.int64), p)

    # ------------------------------------------------------------------
    def gantt(self, width: int = 78, max_procs: int = 16) -> str:
        """ASCII Gantt chart of the schedule (for examples and debugging).

        Each processor is one text row; task cells show the node index when
        they are wide enough. Time is scaled to ``width`` characters.
        """
        span = self.makespan
        if span <= 0:
            span = 1.0
        scale = width / span
        lines = []
        for q in range(min(self.p, max_procs)):
            row = [" "] * width
            for t in self.processor_tasks(q):
                a = int(t.start * scale)
                b = max(a + 1, int(t.end * scale))
                b = min(b, width)
                label = str(t.node)
                for k in range(a, b):
                    row[k] = "#"
                if b - a > len(label) + 1:
                    for k, ch in enumerate(label):
                        row[a + 1 + k] = ch
            lines.append(f"P{q:<3d}|" + "".join(row) + "|")
        if self.p > max_procs:
            lines.append(f"... ({self.p - max_procs} more processors)")
        lines.append(f"     0{'':{width - 12}}{self.makespan:>10.4g}")
        return "\n".join(lines)
