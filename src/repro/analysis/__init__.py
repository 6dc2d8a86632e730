"""Experiment harness and statistics for Section 6's tables and figures."""

from .store import (
    FailedRecord,
    ScenarioRecord,
    RecordColumns,
    JsonlStore,
    open_store,
)
from .campaign import Campaign, Scenario, run_campaign
from .supervisor import RunReport, SupervisorPool
from .metrics import (
    HeuristicStats,
    GroupStats,
    compute_table1_stats,
    compute_table1_stats_reference,
    group_stats,
)
from .tables import render_table1, table1_csv, render_group_table
from .figures import FigureSeries, Cross, figure_data, render_figure, figure_csv
from .pareto import (
    ParetoPoint,
    dominates,
    pareto_front,
    hypervolume,
)
from .shape_stats import ShapeSummary, summarize_shapes, render_shape_table
from .visualize import render_tree, render_memory_profile

__all__ = [
    "FailedRecord",
    "ScenarioRecord",
    "RecordColumns",
    "JsonlStore",
    "open_store",
    "Campaign",
    "Scenario",
    "run_campaign",
    "RunReport",
    "SupervisorPool",
    "HeuristicStats",
    "GroupStats",
    "compute_table1_stats",
    "compute_table1_stats_reference",
    "group_stats",
    "render_table1",
    "table1_csv",
    "render_group_table",
    "FigureSeries",
    "Cross",
    "figure_data",
    "render_figure",
    "figure_csv",
    "ParetoPoint",
    "dominates",
    "pareto_front",
    "hypervolume",
    "ShapeSummary",
    "summarize_shapes",
    "render_shape_table",
    "render_tree",
    "render_memory_profile",
]
