"""repro: reproduction of Marchal, Sinnen, Vivien (IPDPS 2013),
"Scheduling tree-shaped task graphs to minimize memory and makespan".

Public API tour
---------------
* :mod:`repro.core` -- task trees, schedules, the unified event-driven
  scheduling engine, the execution simulator, lower bounds;
* :mod:`repro.registry` -- the central algorithm registry: run any
  scheduler by name (``registry.run("ParDeepestFirst", tree, p)``);
* :mod:`repro.sequential` -- memory-optimal sequential traversals
  (optimal postorder, Liu's exact algorithm);
* :mod:`repro.parallel` -- the paper's heuristics (ParSubtrees,
  ParSubtreesOptim, ParInnerFirst, ParDeepestFirst) and the
  memory-capped extension, registered under those names;
* :mod:`repro.pebble` -- Pebble-Game complexity gadgets (Theorems 1-2,
  Figures 1-5);
* :mod:`repro.matrices` -- sparse-matrix substrate: orderings, symbolic
  Cholesky, assembly trees with the paper's weight model;
* :mod:`repro.workloads` -- the experimental data set and random trees;
* :mod:`repro.analysis` -- the Section 6 experiment harness (Table 1,
  Figures 6-8).

Quickstart
----------
>>> from repro import registry
>>> from repro.core import TaskTree, simulate
>>> tree = TaskTree.from_parents([-1, 0, 0, 1, 1], w=1.0, f=1.0)
>>> result = simulate(registry.run("ParDeepestFirst", tree, p=2))
>>> result.makespan > 0
True
"""

__version__ = "1.0.0"

from repro.core import (
    TaskTree,
    Schedule,
    simulate,
    memory_lower_bound,
    makespan_lower_bound,
)
from repro import registry
from repro.sequential import optimal_postorder, liu_optimal_traversal
from repro.parallel import (
    par_subtrees,
    par_subtrees_optim,
    memory_bounded_schedule,
    HEURISTICS,
)

__all__ = [
    "__version__",
    "registry",
    "TaskTree",
    "Schedule",
    "simulate",
    "memory_lower_bound",
    "makespan_lower_bound",
    "optimal_postorder",
    "liu_optimal_traversal",
    "par_subtrees",
    "par_subtrees_optim",
    "memory_bounded_schedule",
    "HEURISTICS",
]
