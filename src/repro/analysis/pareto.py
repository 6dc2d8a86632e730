"""Bi-objective (makespan, memory) Pareto analysis.

Theorem 2 rules out a single schedule approximating both objectives; in
practice one therefore navigates a *front* of trade-offs -- the four
heuristics plus the capped scheduler swept over budgets. This module
provides the standard multi-objective tooling over
:class:`~repro.analysis.store.ScenarioRecord`-like points:
dominance tests, Pareto-front extraction, and the 2-D hypervolume
indicator used to compare fronts.

Two APIs, one semantics: the :class:`ParetoPoint` functions for small
hand-built fronts, and the ``*_columns`` fast paths
(:func:`pareto_front_columns`, :func:`hypervolume_columns`) operating
directly on (makespan, memory) column arrays from a record store --
one ``np.lexsort`` plus a running-minimum scan instead of a Python
sweep, which is what makes million-record fronts interactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ParetoPoint",
    "dominates",
    "pareto_front",
    "pareto_front_columns",
    "hypervolume",
    "hypervolume_columns",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate schedule in the (makespan, memory) plane."""

    makespan: float
    memory: float
    label: str = ""


def dominates(a: ParetoPoint, b: ParetoPoint, tol: float = 0.0) -> bool:
    """True iff ``a`` weakly dominates ``b`` and is strictly better in at
    least one objective (both objectives are minimised)."""
    no_worse = a.makespan <= b.makespan + tol and a.memory <= b.memory + tol
    better = a.makespan < b.makespan - tol or a.memory < b.memory - tol
    return no_worse and better


def pareto_front(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset, sorted by increasing makespan.

    Duplicate coordinates are collapsed to one representative. O(n log n)
    via the sweep over makespan-sorted points.
    """
    pts = sorted(set((p.makespan, p.memory, p.label) for p in points))
    front: list[ParetoPoint] = []
    best_memory = float("inf")
    for makespan, memory, label in pts:
        if memory < best_memory:
            front.append(ParetoPoint(makespan, memory, label))
            best_memory = memory
    return front


def pareto_front_columns(makespan, memory) -> np.ndarray:
    """Indices of the non-dominated rows of two parallel columns.

    The vectorised twin of :func:`pareto_front`: the returned indices
    select the front in increasing-makespan order, one representative
    per coordinate pair (ties resolved to the lowest index). Feed it
    :class:`~repro.analysis.store.RecordColumns` columns directly::

        idx = pareto_front_columns(cols.makespan, cols.memory)
        front_labels = cols.heuristic[idx]
    """
    mk = np.asarray(makespan, np.float64)
    mem = np.asarray(memory, np.float64)
    if mk.shape != mem.shape or mk.ndim != 1:
        raise ValueError("makespan and memory must be 1-D arrays of equal length")
    if len(mk) == 0:
        return np.empty(0, np.int64)
    order = np.lexsort((mem, mk))
    m = mem[order]
    running = np.minimum.accumulate(m)
    keep = np.empty(len(m), bool)
    keep[0] = True
    # strictly below the best memory of every earlier (<= makespan) point
    keep[1:] = m[1:] < running[:-1]
    return order[keep]


def _check_reference(mk, mem, ref_mk: float, ref_mem: float, n_bad: int) -> None:
    if n_bad:
        raise ValueError(
            f"hypervolume reference ({ref_mk:g}, {ref_mem:g}) must be weakly "
            f"worse than every point in both objectives; {n_bad} point(s) "
            "exceed it (their dominated volume would be negative garbage). "
            "Filter the points or move the reference."
        )


def hypervolume(points: Sequence[ParetoPoint], reference: ParetoPoint) -> float:
    """2-D hypervolume dominated by ``points`` w.r.t. ``reference``.

    The reference must be weakly worse than every point in both
    objectives -- a point beyond it would contribute a *negative*
    rectangle, silently corrupting comparisons, so it raises
    ``ValueError`` instead. Larger is better.
    """
    n_bad = sum(
        1
        for p in points
        if p.makespan > reference.makespan or p.memory > reference.memory
    )
    _check_reference(None, None, reference.makespan, reference.memory, n_bad)
    front = pareto_front(points)
    # front is sorted by increasing makespan with strictly decreasing
    # memory; point i dominates the rectangle
    # [makespan_i, makespan_{i+1}) x [memory_i, reference.memory),
    # where the last right boundary is the reference itself.
    volume = 0.0
    for i, p in enumerate(front):
        right = front[i + 1].makespan if i + 1 < len(front) else reference.makespan
        volume += (right - p.makespan) * (reference.memory - p.memory)
    return volume


def hypervolume_columns(makespan, memory, reference: "ParetoPoint | tuple") -> float:
    """Vectorised :func:`hypervolume` over column arrays.

    Same precondition (``ValueError`` when the reference is not weakly
    worse than every point) and the same rectangles; the summation runs
    as one numpy dot instead of a Python loop, so the value can differ
    from the scalar loop by float summation order (documented tolerance:
    the golden test compares at ``rtol=1e-12``).
    """
    ref_mk, ref_mem = (
        (reference.makespan, reference.memory)
        if isinstance(reference, ParetoPoint)
        else (float(reference[0]), float(reference[1]))
    )
    mk = np.asarray(makespan, np.float64)
    mem = np.asarray(memory, np.float64)
    n_bad = int(np.count_nonzero((mk > ref_mk) | (mem > ref_mem)))
    _check_reference(mk, mem, ref_mk, ref_mem, n_bad)
    idx = pareto_front_columns(mk, mem)
    if len(idx) == 0:
        return 0.0
    fmk = mk[idx]
    fmem = mem[idx]
    rights = np.empty_like(fmk)
    rights[:-1] = fmk[1:]
    rights[-1] = ref_mk
    return float(np.sum((rights - fmk) * (ref_mem - fmem)))
