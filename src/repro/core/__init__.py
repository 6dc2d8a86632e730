"""Core model: trees, schedules, the scheduling engine, simulation,
validation, and lower bounds.

Everything here is reached from the scheduling path: the heuristics
build on :class:`TaskTree`, :class:`PreparedTree` and the
:class:`SchedulerEngine`, and the campaign measures their schedules
with :func:`simulate` against :func:`memory_lower_bound` and
:func:`makespan_lower_bound`.
"""

from .tree import TaskTree, NO_PARENT
from .prepared import PreparedTree, as_prepared, tree_of
from .schedule import Schedule, ScheduledTask
from .engine import (
    MemoryCapError,
    SchedulerEngine,
    lex_rank,
    resolve_backend,
)
from .simulator import (
    SimulationResult,
    simulate,
    peak_memory,
    memory_profile,
    sequential_peak_memory,
)
from .validation import InvalidScheduleError, validate_schedule, is_valid
from .bounds import memory_lower_bound, makespan_lower_bound

__all__ = [
    "TaskTree",
    "NO_PARENT",
    "PreparedTree",
    "as_prepared",
    "tree_of",
    "Schedule",
    "ScheduledTask",
    "MemoryCapError",
    "SchedulerEngine",
    "lex_rank",
    "resolve_backend",
    "SimulationResult",
    "simulate",
    "peak_memory",
    "memory_profile",
    "sequential_peak_memory",
    "InvalidScheduleError",
    "validate_schedule",
    "is_valid",
    "memory_lower_bound",
    "makespan_lower_bound",
]
