"""Experiment harness and statistics for Section 6's tables and figures."""

from .experiments import (
    FailedRecord,
    ScenarioRecord,
    run_experiments,
    save_records,
    load_records,
    iter_records,
)
from .store import (
    RecordColumns,
    RecordStore,
    JsonlStore,
    ColumnarStore,
    open_store,
    pack_store,
    merge_stores,
    STORE_BACKENDS,
)
from .campaign import Campaign, Scenario, run_campaign, recover_checkpoint
from .supervisor import RunReport, run_supervised
from .metrics import (
    HeuristicStats,
    GroupStats,
    compute_table1_stats,
    compute_table1_stats_reference,
    group_by_scenario,
    group_stats,
)
from .tables import render_table1, table1_csv, render_group_table, group_table_csv
from .figures import FigureSeries, Cross, figure_data, render_figure, figure_csv
from .pareto import (
    ParetoPoint,
    dominates,
    pareto_front,
    pareto_front_columns,
    hypervolume,
    hypervolume_columns,
)
from .shape_stats import ShapeSummary, summarize_shapes, render_shape_table
from .visualize import render_tree, render_memory_profile

__all__ = [
    "FailedRecord",
    "ScenarioRecord",
    "run_experiments",
    "save_records",
    "load_records",
    "iter_records",
    "RecordColumns",
    "RecordStore",
    "JsonlStore",
    "ColumnarStore",
    "open_store",
    "pack_store",
    "merge_stores",
    "STORE_BACKENDS",
    "Campaign",
    "Scenario",
    "run_campaign",
    "recover_checkpoint",
    "RunReport",
    "run_supervised",
    "HeuristicStats",
    "GroupStats",
    "compute_table1_stats",
    "compute_table1_stats_reference",
    "group_by_scenario",
    "group_stats",
    "render_table1",
    "table1_csv",
    "render_group_table",
    "group_table_csv",
    "FigureSeries",
    "Cross",
    "figure_data",
    "render_figure",
    "figure_csv",
    "ParetoPoint",
    "dominates",
    "pareto_front",
    "pareto_front_columns",
    "hypervolume",
    "hypervolume_columns",
    "ShapeSummary",
    "summarize_shapes",
    "render_shape_table",
    "render_tree",
    "render_memory_profile",
]
