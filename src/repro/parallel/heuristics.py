"""The paper's heuristics, as a thin view over the central registry.

The canonical algorithm catalogue lives in :mod:`repro.registry`;
``HEURISTICS`` here remains the historical mapping of the four Section 5
heuristics (in the paper's presentation order) to their
``(tree, p) -> Schedule`` callables, because the experiment harness and
a large body of tests key on it. The ``evaluate`` helper runs one
heuristic and returns the (makespan, peak memory) pair measured by the
simulator, which is what every table and figure of Section 6 is built
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import registry
from repro.core.schedule import Schedule
from repro.core.simulator import simulate
from repro.core.tree import TaskTree

__all__ = ["HEURISTICS", "HeuristicResult", "evaluate", "run_all"]

#: The four heuristics of Section 5, in the paper's presentation order,
#: each its registry entry's ``run``.
HEURISTICS: dict[str, Callable[[TaskTree, int], Schedule]] = {
    name: registry.get(name).run
    for name in ("ParSubtrees", "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst")
}


@dataclass(frozen=True)
class HeuristicResult:
    """Measured performance of one heuristic on one scenario."""

    name: str
    makespan: float
    peak_memory: float


def evaluate(name: str, tree: TaskTree, p: int, validate: bool = False) -> HeuristicResult:
    """Run heuristic ``name`` on ``(tree, p)`` and measure it.

    Any registry algorithm name is accepted, not just the paper's four.
    ``validate=True`` re-checks schedule validity (slower; the test
    suite exercises this path, the benchmark harness skips it).
    """
    schedule = registry.run(name, tree, p)
    result = simulate(schedule, validate=validate)
    return HeuristicResult(name=name, makespan=result.makespan, peak_memory=result.peak_memory)


def run_all(tree: TaskTree, p: int, validate: bool = False) -> dict[str, HeuristicResult]:
    """Run every heuristic of the paper on one scenario."""
    return {name: evaluate(name, tree, p, validate=validate) for name in HEURISTICS}
