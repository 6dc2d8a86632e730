"""ASCII rendering of Table 1 (and CSV export).

The layout mirrors the paper's Table 1: per heuristic, the share of
scenarios with best (and within-5%-of-best) memory, the average
deviation from the sequential memory, and the same three columns for the
makespan objective.
"""

from __future__ import annotations

from typing import Sequence

from .metrics import GroupStats, HeuristicStats

__all__ = ["render_table1", "table1_csv", "render_group_table"]

_PAPER_TABLE1 = {
    # heuristic: (best mem %, within5 mem %, avg dev seq mem %,
    #             best makespan %, within5 makespan %, avg dev best makespan %)
    "ParSubtrees": (81.1, 85.2, 133.0, 0.2, 14.2, 34.7),
    "ParSubtreesOptim": (49.9, 65.6, 144.8, 1.1, 19.1, 28.5),
    "ParInnerFirst": (19.1, 26.2, 276.5, 37.2, 82.4, 2.6),
    "ParDeepestFirst": (3.0, 9.6, 325.8, 95.7, 99.9, 0.0),
}


def render_table1(stats: Sequence[HeuristicStats], compare_paper: bool = True) -> str:
    """Render Table 1; with ``compare_paper`` the paper's values are
    interleaved below each measured row for side-by-side comparison."""
    header = (
        f"{'Heuristic':<22s} {'best mem':>9s} {'<=5% mem':>9s} {'dev seq mem':>12s} "
        f"{'best mk':>8s} {'<=5% mk':>8s} {'dev best mk':>12s}"
    )
    sep = "-" * len(header)
    lines = [header, sep]
    for s in stats:
        lines.append(
            f"{s.heuristic:<22s} {s.best_memory:>8.1f}% {s.within5_memory:>8.1f}% "
            f"{s.avg_dev_seq_memory:>11.1f}% {s.best_makespan:>7.1f}% "
            f"{s.within5_makespan:>7.1f}% {s.avg_dev_best_makespan:>11.1f}%"
        )
        if compare_paper and s.heuristic in _PAPER_TABLE1:
            p = _PAPER_TABLE1[s.heuristic]
            lines.append(
                f"{'  (paper)':<22s} {p[0]:>8.1f}% {p[1]:>8.1f}% {p[2]:>11.1f}% "
                f"{p[3]:>7.1f}% {p[4]:>7.1f}% {p[5]:>11.1f}%"
            )
    lines.append(sep)
    if stats:
        lines.append(f"scenarios: {stats[0].scenarios}")
    return "\n".join(lines)


def render_group_table(stats: Sequence[GroupStats]) -> str:
    """ASCII table of the (algorithm, n, p, cap) campaign groupby
    (:func:`repro.analysis.metrics.group_stats`): per cell, the record
    count and the mean/max normalised ratios against the two lower
    bounds."""
    header = (
        f"{'algorithm':<22s} {'n':>7s} {'p':>4s} {'cap':>6s} {'count':>6s} "
        f"{'mk/LB mean':>11s} {'mk/LB max':>10s} "
        f"{'mem/Mseq mean':>14s} {'mem/Mseq max':>13s}"
    )
    sep = "-" * len(header)
    lines = [header, sep]
    for s in stats:
        cap = f"{s.cap:g}" if s.cap is not None else "-"
        lines.append(
            f"{s.algorithm:<22s} {s.n:>7d} {s.p:>4d} {cap:>6s} {s.count:>6d} "
            f"{s.mean_makespan_ratio:>11.4f} {s.max_makespan_ratio:>10.4f} "
            f"{s.mean_memory_ratio:>14.4f} {s.max_memory_ratio:>13.4f}"
        )
    lines.append(sep)
    return "\n".join(lines)


def table1_csv(stats: Sequence[HeuristicStats]) -> str:
    """CSV form of Table 1 (one row per heuristic)."""
    rows = [
        "heuristic,best_memory_pct,within5_memory_pct,avg_dev_seq_memory_pct,"
        "best_makespan_pct,within5_makespan_pct,avg_dev_best_makespan_pct,scenarios"
    ]
    for s in stats:
        rows.append(
            f"{s.heuristic},{s.best_memory:.2f},{s.within5_memory:.2f},"
            f"{s.avg_dev_seq_memory:.2f},{s.best_makespan:.2f},"
            f"{s.within5_makespan:.2f},{s.avg_dev_best_makespan:.2f},{s.scenarios}"
        )
    return "\n".join(rows)
