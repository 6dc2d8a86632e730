"""Data series and ASCII rendering of Figures 6, 7 and 8.

Each figure is a scatter of scenarios in the (makespan ratio, memory
ratio) plane plus, per heuristic, a "cross": its centre is the average
performance and its branches span the 10th-90th percentiles of each
objective -- the exact visual device of the paper.

* Figure 6: ratios to the lower bounds (sequential-postorder memory,
  ``max(W/p, CP)`` makespan);
* Figure 7: ratios to ParSubtrees on the same scenario;
* Figure 8: ratios to ParInnerFirst on the same scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import Records, _first_appearance_ids, _scenario_ids
from .store import RecordColumns

__all__ = ["FigureSeries", "Cross", "figure_data", "render_figure", "figure_csv"]


@dataclass(frozen=True)
class Cross:
    """Average-and-percentile cross of one heuristic's point cloud."""

    x_mean: float
    y_mean: float
    x_p10: float
    x_p90: float
    y_p10: float
    y_p90: float


@dataclass(frozen=True)
class FigureSeries:
    """Point cloud of one heuristic in one figure."""

    heuristic: str
    x: np.ndarray  # makespan ratios
    y: np.ndarray  # memory ratios

    def cross(self) -> Cross:
        """The paper's distribution cross for this series."""
        return Cross(
            x_mean=float(np.mean(self.x)),
            y_mean=float(np.mean(self.y)),
            x_p10=float(np.percentile(self.x, 10)),
            x_p90=float(np.percentile(self.x, 90)),
            y_p10=float(np.percentile(self.y, 10)),
            y_p90=float(np.percentile(self.y, 90)),
        )


def figure_data(records: Records, which: int) -> list[FigureSeries]:
    """Build the point clouds of Figure ``which`` (6, 7 or 8).

    Figure 7 normalises by ParSubtrees (which is therefore omitted from
    the output, being identically (1, 1)); Figure 8 by ParInnerFirst.
    Failed rows are dropped. Vectorised over the record columns: rows
    are taken in (scenario first-appearance, stream position) order --
    scenario by scenario, as the per-record loop of the paper's
    figures walks them -- and the per-scenario reference row
    broadcasts through the scenario group ids.
    """
    reference = {6: None, 7: "ParSubtrees", 8: "ParInnerFirst"}.get(which, "missing")
    if reference == "missing":
        raise ValueError("which must be 6, 7 or 8")
    cols = RecordColumns.of(records).measured()
    if len(cols) == 0:
        return []
    scen_id, n_scen = _scenario_ids(cols)
    order = np.lexsort((np.arange(len(cols)), scen_id))
    heur = cols.heuristic[order]
    scen = scen_id[order]
    mk = cols.makespan[order]
    mem = cols.memory[order]
    if reference is None:
        x = cols.makespan_ratio()[order]
        y = cols.memory_ratio()[order]
    else:
        is_ref = heur == reference
        ref_mk = np.full(n_scen, np.nan)
        ref_mem = np.full(n_scen, np.nan)
        # reversed assignment: the *first* reference row of a scenario
        # wins
        ref_mk[scen[is_ref][::-1]] = mk[is_ref][::-1]
        ref_mem[scen[is_ref][::-1]] = mem[is_ref][::-1]
        if np.isnan(ref_mk).any():
            raise ValueError(f"records lack reference heuristic {reference}")
        x = mk / ref_mk[scen]
        y = mem / ref_mem[scen]
    _, names = _first_appearance_ids(heur)
    out = []
    for name in names:
        if str(name) == reference:
            continue
        sel = heur == name
        out.append(FigureSeries(str(name), x[sel], y[sel]))
    return out


_MARKS = "ox+*#@"


def render_figure(
    data: Sequence[FigureSeries],
    width: int = 72,
    height: int = 24,
    title: str = "",
) -> str:
    """ASCII log-log scatter with per-heuristic crosses.

    Points use one mark per heuristic; the cross centres are upper-case
    letters. Axis limits cover all points with a small margin.
    """
    all_x = np.concatenate([s.x for s in data])
    all_y = np.concatenate([s.y for s in data])
    lo_x, hi_x = float(all_x.min()) / 1.1, float(all_x.max()) * 1.1
    lo_y, hi_y = float(all_y.min()) / 1.1, float(all_y.max()) * 1.1
    lo_x, lo_y = max(lo_x, 1e-6), max(lo_y, 1e-6)

    def to_col(x: float) -> int:
        t = (math.log(x) - math.log(lo_x)) / (math.log(hi_x) - math.log(lo_x) + 1e-12)
        return min(width - 1, max(0, int(t * (width - 1))))

    def to_row(y: float) -> int:
        t = (math.log(y) - math.log(lo_y)) / (math.log(hi_y) - math.log(lo_y) + 1e-12)
        return min(height - 1, max(0, int((1 - t) * (height - 1))))

    canvas = [[" "] * width for _ in range(height)]
    legend = []
    for k, s in enumerate(data):
        mark = _MARKS[k % len(_MARKS)]
        legend.append(f"{mark} {s.heuristic}")
        for x, y in zip(s.x, s.y):
            canvas[to_row(y)][to_col(x)] = mark
    for k, s in enumerate(data):
        c = s.cross()
        row, col = to_row(c.y_mean), to_col(c.x_mean)
        for cc in range(to_col(c.x_p10), to_col(c.x_p90) + 1):
            if canvas[row][cc] == " ":
                canvas[row][cc] = "-"
        for rr in range(to_row(c.y_p90), to_row(c.y_p10) + 1):
            if canvas[rr][col] == " ":
                canvas[rr][col] = "|"
        canvas[row][col] = s.heuristic[3].upper() if len(s.heuristic) > 3 else "X"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"memory ratio (log) in [{lo_y:.3g}, {hi_y:.3g}]")
    lines.extend("|" + "".join(row) + "|" for row in canvas)
    lines.append("+" + "-" * width + "+")
    lines.append(f"makespan ratio (log) in [{lo_x:.3g}, {hi_x:.3g}]")
    lines.append("legend: " + "; ".join(legend) + "; capitals = averages, bars = p10-p90")
    return "\n".join(lines)


def figure_csv(data: Sequence[FigureSeries]) -> str:
    """CSV of the point clouds (heuristic, makespan ratio, memory ratio)."""
    rows = ["heuristic,makespan_ratio,memory_ratio"]
    for s in data:
        for x, y in zip(s.x, s.y):
            rows.append(f"{s.heuristic},{x:.6g},{y:.6g}")
    return "\n".join(rows)
