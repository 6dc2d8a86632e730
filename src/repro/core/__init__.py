"""Core model: trees, schedules, simulation, validation, and bounds."""

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
from .outofcore import OutOfCoreResult, simulate_out_of_core
from .trace import TraceEvent, UtilizationStats, schedule_trace, utilization, trace_json

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
    "OutOfCoreResult",
    "simulate_out_of_core",
    "TraceEvent",
    "UtilizationStats",
    "schedule_trace",
    "utilization",
    "trace_json",
]
