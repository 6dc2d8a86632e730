"""Bi-objective (makespan, memory) Pareto analysis.

Theorem 2 rules out a single schedule approximating both objectives; in
practice one therefore navigates a *front* of trade-offs -- the four
heuristics plus the capped scheduler swept over budgets. This module
provides the standard multi-objective tooling over
:class:`~repro.analysis.store.ScenarioRecord`-like points:
dominance tests, Pareto-front extraction, and the 2-D hypervolume
indicator used to compare fronts (``repro pareto`` prints one front
and its hypervolume per (tree, p) scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ParetoPoint",
    "dominates",
    "pareto_front",
    "hypervolume",
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
    if n_bad:
        raise ValueError(
            f"hypervolume reference ({reference.makespan:g}, {reference.memory:g}) "
            f"must be weakly worse than every point in both objectives; {n_bad} "
            "point(s) exceed it (their dominated volume would be negative "
            "garbage). Filter the points or move the reference."
        )
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
