"""Statistics over scenario records: the quantities of Table 1.

For every scenario (tree, p) the per-heuristic results are compared:

* **best memory / best makespan** -- fraction of scenarios where the
  heuristic attains the scenario minimum (ties count for all tied);
* **within 5% of best** -- fraction where it is within a factor 1.05 of
  the scenario best;
* **average deviation from optimal (seq.) memory** -- mean of
  ``memory / memory_lb - 1`` in percent (133% in the paper means 2.33x
  the sequential memory);
* **average deviation from best makespan** -- mean of
  ``makespan / best_makespan - 1`` in percent.

The computation is **vectorised over record columns**
(:class:`~repro.analysis.store.RecordColumns`): scenarios and
heuristics become integer group ids (ranked by first appearance, the
historical dict order), per-scenario minima come from
``np.minimum.at``, hit counts from ``np.bincount``, and the per-
heuristic deviation means from one ``np.lexsort`` that reproduces the
reference loop's accumulation order exactly -- so the results are
**bit-identical** to the per-record loop (kept as
:func:`compute_table1_stats_reference` and pinned by a golden test),
while running ~2 orders of magnitude faster at 1e6 records. Plain
record lists are converted on entry; columns loaded straight from a
checkpoint (:meth:`~repro.analysis.store.JsonlStore.columns`) skip the
conversion entirely.

:func:`group_stats` is the campaign-scale groupby: per
(algorithm, n, p, cap) cell -- the cap parsed from ``name@capF``
labels -- it reports scenario counts and mean/max normalised ratios,
feeding the regime tables of ``tables.py`` / ``report.py``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .store import RecordColumns, ScenarioRecord

__all__ = [
    "HeuristicStats",
    "GroupStats",
    "compute_table1_stats",
    "compute_table1_stats_reference",
    "group_stats",
]

_REL_TOL = 1e-9

Records = Union[Sequence[ScenarioRecord], RecordColumns]


@dataclass(frozen=True)
class HeuristicStats:
    """One row of Table 1."""

    heuristic: str
    best_memory: float
    within5_memory: float
    avg_dev_seq_memory: float
    best_makespan: float
    within5_makespan: float
    avg_dev_best_makespan: float
    scenarios: int


@dataclass(frozen=True)
class GroupStats:
    """One (algorithm, n, p, cap) cell of the campaign groupby."""

    algorithm: str
    n: int
    p: int
    cap: float | None
    count: int
    mean_makespan_ratio: float
    mean_memory_ratio: float
    max_makespan_ratio: float
    max_memory_ratio: float


def _group_by_scenario(
    records: Sequence[ScenarioRecord],
) -> dict[tuple[str, int], list[ScenarioRecord]]:
    """Group records by (tree, p) scenario (for the reference loop)."""
    groups: dict[tuple[str, int], list[ScenarioRecord]] = defaultdict(list)
    for r in records:
        groups[(r.tree, r.p)].append(r)
    return dict(groups)


def _as_columns(records: Records) -> RecordColumns:
    cols = RecordColumns.of(records)
    if cols.failed.any():
        raise ValueError(
            "failed records cannot enter the statistics; "
            "filter them out (columns.measured()) first"
        )
    return cols


def _first_appearance_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids ranked by **first appearance** along ``keys`` (the
    insertion order a per-record dict would have), plus the unique key
    values in that order: ``(ids, uniques)`` with
    ``uniques[ids] == keys``."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse], uniq[order]


def _scenario_ids(cols: RecordColumns) -> tuple[np.ndarray, int]:
    """First-appearance group ids of the (tree, p) scenario key.

    The only string sort is the tree-name factorisation; the (tree, p)
    pair then reduces to one integer per record (a bijection, so the
    grouping -- and the first-appearance ranking -- is identical to
    uniquifying the pairs directly, at a fraction of the cost)."""
    _, t_inv = np.unique(cols.tree, return_inverse=True)
    pu, p_inv = np.unique(cols.p, return_inverse=True)
    ids, uniq = _first_appearance_ids(t_inv * len(pu) + p_inv)
    return ids, len(uniq)


def compute_table1_stats(records: Records) -> list[HeuristicStats]:
    """Compute the Table 1 rows from a record set (list or columns).

    Heuristics are reported in the paper's order when present.
    Bit-identical to :func:`compute_table1_stats_reference` for any
    input (golden-tested), at array speed.
    """
    cols = _as_columns(records)
    m = len(cols)
    if m == 0:
        return []
    heur_id, names = _first_appearance_ids(cols.heuristic)
    n_heur = len(names)
    scen_id, n_scen = _scenario_ids(cols)
    sizes = np.bincount(scen_id, minlength=n_scen)
    if not np.all(sizes == n_heur):
        raise ValueError("incomplete scenario: every heuristic must be present")

    best_mem = np.full(n_scen, np.inf)
    np.minimum.at(best_mem, scen_id, cols.memory)
    best_mk = np.full(n_scen, np.inf)
    np.minimum.at(best_mk, scen_id, cols.makespan)

    # identical scalar expressions to the reference loop, elementwise
    hit_best_mem = cols.memory <= best_mem[scen_id] * (1 + _REL_TOL)
    hit_w5_mem = cols.memory <= best_mem[scen_id] * 1.05
    hit_best_mk = cols.makespan <= best_mk[scen_id] * (1 + _REL_TOL)
    hit_w5_mk = cols.makespan <= best_mk[scen_id] * 1.05
    dev_mem = cols.memory / cols.memory_lb - 1.0
    dev_mk = cols.makespan / best_mk[scen_id] - 1.0

    def hits(mask: np.ndarray) -> np.ndarray:
        return np.bincount(heur_id[mask], minlength=n_heur)

    counts = (hits(hit_best_mem), hits(hit_w5_mem), hits(hit_best_mk), hits(hit_w5_mk))

    # The reference loop appends each heuristic's deviations group by
    # group (groups in first-appearance order, records in stream order
    # within a group) and takes np.mean of that list. Sorting by
    # (heuristic, scenario rank, stream position) makes each
    # heuristic's slice exactly that list, so np.mean over the
    # contiguous slice performs the identical pairwise summation.
    order = np.lexsort((np.arange(m), scen_id, heur_id))
    dev_mem_sorted = dev_mem[order]
    dev_mk_sorted = dev_mk[order]
    starts = np.concatenate(([0], np.cumsum(np.bincount(heur_id, minlength=n_heur))))

    stats = []
    for h, name in enumerate(names):
        a, b = starts[h], starts[h + 1]
        stats.append(
            HeuristicStats(
                heuristic=str(name),
                best_memory=100.0 * int(counts[0][h]) / n_scen,
                within5_memory=100.0 * int(counts[1][h]) / n_scen,
                avg_dev_seq_memory=100.0 * float(np.mean(dev_mem_sorted[a:b])),
                best_makespan=100.0 * int(counts[2][h]) / n_scen,
                within5_makespan=100.0 * int(counts[3][h]) / n_scen,
                avg_dev_best_makespan=100.0 * float(np.mean(dev_mk_sorted[a:b])),
                scenarios=n_scen,
            )
        )
    return stats


def compute_table1_stats_reference(
    records: Sequence[ScenarioRecord],
) -> list[HeuristicStats]:
    """The historical per-record loop (the exactness oracle of
    :func:`compute_table1_stats`; quadratic-ish and list-bound, kept
    for the golden equality test and as executable documentation)."""
    groups = _group_by_scenario(records)
    names: list[str] = []
    for r in records:
        if r.heuristic not in names:
            names.append(r.heuristic)
    best_mem_hits = defaultdict(int)
    within5_mem_hits = defaultdict(int)
    best_mk_hits = defaultdict(int)
    within5_mk_hits = defaultdict(int)
    dev_mem = defaultdict(list)
    dev_mk = defaultdict(list)
    n_scen = 0
    for recs in groups.values():
        if len(recs) != len(names):
            raise ValueError("incomplete scenario: every heuristic must be present")
        n_scen += 1
        best_mem = min(r.memory for r in recs)
        best_mk = min(r.makespan for r in recs)
        for r in recs:
            if r.memory <= best_mem * (1 + _REL_TOL):
                best_mem_hits[r.heuristic] += 1
            if r.memory <= best_mem * 1.05:
                within5_mem_hits[r.heuristic] += 1
            if r.makespan <= best_mk * (1 + _REL_TOL):
                best_mk_hits[r.heuristic] += 1
            if r.makespan <= best_mk * 1.05:
                within5_mk_hits[r.heuristic] += 1
            dev_mem[r.heuristic].append(r.memory / r.memory_lb - 1.0)
            dev_mk[r.heuristic].append(r.makespan / best_mk - 1.0)
    stats = []
    for name in names:
        stats.append(
            HeuristicStats(
                heuristic=name,
                best_memory=100.0 * best_mem_hits[name] / n_scen,
                within5_memory=100.0 * within5_mem_hits[name] / n_scen,
                avg_dev_seq_memory=100.0 * float(np.mean(dev_mem[name])),
                best_makespan=100.0 * best_mk_hits[name] / n_scen,
                within5_makespan=100.0 * within5_mk_hits[name] / n_scen,
                avg_dev_best_makespan=100.0 * float(np.mean(dev_mk[name])),
                scenarios=n_scen,
            )
        )
    return stats


def split_label(label: str) -> tuple[str, float | None]:
    """``"MemoryBounded@cap1.5" -> ("MemoryBounded", 1.5)``; plain
    algorithm labels carry no cap."""
    if "@cap" in label:
        name, _, cap = label.rpartition("@cap")
        try:
            return name, float(cap)
        except ValueError:
            pass
    return label, None


def group_stats(records: Records) -> list[GroupStats]:
    """Campaign groupby: one row per (algorithm, n, p, cap) cell.

    Fully vectorised over columns: the normalised ratios
    (``memory / memory_lb``, ``makespan / makespan_lb``) are computed
    once for the whole stream, cells become integer group ids, and the
    per-cell count/mean/max reduce with ``np.bincount`` /
    ``np.maximum.at``. Rows are ordered by (algorithm, cap, n, p).
    """
    cols = _as_columns(records)
    if len(cols) == 0:
        return []
    labels, label_names = _first_appearance_ids(cols.heuristic)
    # distinct labels can parse to the same (algorithm, cap) cell
    # ("A@cap1.5" / "A@cap1.50"); dedupe at the label level, so the
    # per-record work below stays purely integer
    parsed = [split_label(str(name)) for name in label_names]
    cells: dict[tuple[str, float], int] = {}
    cell_of_label = np.empty(len(parsed), np.int64)
    for k, (algo, cap) in enumerate(parsed):
        cell = (algo, -np.inf if cap is None else cap)
        cell_of_label[k] = cells.setdefault(cell, len(cells))
    cell_names = list(cells)

    # factorise (cell, n, p) into one integer per record: only the
    # label column was a string, and it is already integer ids
    nu, n_inv = np.unique(cols.n, return_inverse=True)
    pu, p_inv = np.unique(cols.p, return_inverse=True)
    combined = (cell_of_label[labels] * len(nu) + n_inv) * len(pu) + p_inv
    uniq, gid = np.unique(combined, return_inverse=True)
    n_groups = len(uniq)

    mk_ratio = cols.makespan_ratio()
    mem_ratio = cols.memory_ratio()
    count = np.bincount(gid, minlength=n_groups)
    sum_mk = np.bincount(gid, weights=mk_ratio, minlength=n_groups)
    sum_mem = np.bincount(gid, weights=mem_ratio, minlength=n_groups)
    max_mk = np.full(n_groups, -np.inf)
    np.maximum.at(max_mk, gid, mk_ratio)
    max_mem = np.full(n_groups, -np.inf)
    np.maximum.at(max_mem, gid, mem_ratio)

    out = []
    for g in range(n_groups):
        code = int(uniq[g])
        code, p_id = divmod(code, len(pu))
        cell_id, n_id = divmod(code, len(nu))
        algo, cap = cell_names[cell_id]
        out.append(
            GroupStats(
                algorithm=algo,
                n=int(nu[n_id]),
                p=int(pu[p_id]),
                cap=None if cap == -np.inf else float(cap),
                count=int(count[g]),
                mean_makespan_ratio=float(sum_mk[g] / count[g]),
                mean_memory_ratio=float(sum_mem[g] / count[g]),
                max_makespan_ratio=float(max_mk[g]),
                max_memory_ratio=float(max_mem[g]),
            )
        )
    # rows ordered by (algorithm, cap, n, p), capless cells first
    out.sort(
        key=lambda s: (s.algorithm, -np.inf if s.cap is None else s.cap, s.n, s.p)
    )
    return out
