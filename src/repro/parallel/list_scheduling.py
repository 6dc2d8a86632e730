"""Event-based list scheduling (Algorithm 3 of the paper) -- front end.

The actual event sweep lives in :mod:`repro.core.engine`
(:class:`~repro.core.engine.SchedulerEngine`); this module keeps the
historical entry point :func:`list_schedule` as a thin configuration of
it, plus the :func:`postorder_ranks` helper shared by the heuristics.

``list_schedule`` accepts priorities in two forms:

* a **numpy integer rank array** (a permutation of ``0..n-1``, usually
  from :func:`repro.core.engine.lex_rank` over vectorized key columns)
  -- the fast path: heuristic setup is one vectorized sweep and the
  event loop does O(log n) integer heap operations only;
* a legacy **per-node callable** ``i -> tuple`` -- converted once to a
  rank array via :func:`repro.core.engine.rank_from_callable`, which
  reproduces the historical ``(priority(i), i)`` heap order bit for bit.

Every entry point accepts either a :class:`~repro.core.tree.TaskTree`
or a :class:`~repro.core.prepared.PreparedTree`; with a prepared tree
the reference postorder, the rank permutations and the engine's typed
sweep columns are derived once and shared across an arbitrary number of
``(p, cap)`` configurations -- schedules are bit-identical either way.

Complexity is :math:`O(n \\log n)` either way, matching the paper's
analysis.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.engine import SchedulerEngine, rank_from_callable
from repro.core.prepared import PreparedTree, tree_of
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["list_schedule", "PriorityKey"]

#: A priority function maps a node index to a sortable key; *smaller keys
#: are scheduled first* (heapq convention).
PriorityKey = Callable[[int], tuple]


def list_schedule(
    tree: TaskTree | PreparedTree,
    p: int,
    priority: PriorityKey | np.ndarray,
) -> Schedule:
    """Schedule ``tree`` on ``p`` processors by list scheduling.

    Parameters
    ----------
    tree:
        the task tree (bare or prepared; the prepared form amortizes
        the engine's per-tree derivations across calls).
    p:
        number of identical processors.
    priority:
        either an integer rank array (one rank per node, smallest rank
        runs first) or a legacy key function over node indices. Keys
        are fixed per node; both forms yield the identical schedule.

    Returns
    -------
    Schedule
        a valid schedule (validated property in tests): precedence
        respected and no processor oversubscribed. Like all list
        schedules it is a :math:`(2 - 1/p)`-approximation of the optimal
        makespan (Graham's bound).
    """
    if callable(priority):
        rank = rank_from_callable(tree_of(tree), priority)
    else:
        rank = np.asarray(priority, dtype=np.int64)
    return SchedulerEngine(tree, p, rank).run()


def postorder_ranks(
    tree: TaskTree | PreparedTree, order: Sequence[int] | None = None
) -> np.ndarray:
    """Rank of every node in a reference sequential order ``O``.

    The paper uses the memory-optimal sequential postorder as ``O`` for
    both ParInnerFirst (leaf order) and ParDeepestFirst (tie-breaking);
    when ``order`` is None that postorder is computed here -- once per
    prepared tree, on every call for a bare tree.
    """
    if order is None:
        if isinstance(tree, PreparedTree):
            return tree.sigma_rank()
        from repro.sequential.postorder import optimal_postorder

        order = optimal_postorder(tree_of(tree)).order
    order = np.asarray(order, dtype=np.int64)
    n = tree_of(tree).n
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return ranks
