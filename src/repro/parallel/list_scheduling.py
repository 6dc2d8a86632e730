"""Event-based list scheduling (Algorithm 3 of the paper) -- front end.

The actual event sweep lives in :mod:`repro.core.engine`
(:class:`~repro.core.engine.SchedulerEngine`); this module keeps the
historical entry point :func:`list_schedule` as a thin configuration of
it, plus the :func:`postorder_ranks` helper shared by the heuristics.

A priority is a **numpy integer rank array** (a permutation of
``0..n-1``, usually from :func:`repro.core.engine.lex_rank` over
vectorized key columns): heuristic setup is one vectorized sweep and
the event loop does O(log n) integer heap operations only, so the
complexity is :math:`O(n \\log n)`, matching the paper's analysis.

Every entry point runs on a :class:`~repro.core.prepared.PreparedTree`
(a bare :class:`~repro.core.tree.TaskTree` is prepared on the fly):
the reference postorder, the rank permutations and the engine's typed
sweep columns are derived once per prepared tree and shared across an
arbitrary number of ``(p, cap)`` configurations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import SchedulerEngine
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["list_schedule"]


def list_schedule(tree: TaskTree | PreparedTree, p: int, rank: np.ndarray) -> Schedule:
    """Schedule ``tree`` on ``p`` processors by list scheduling.

    Parameters
    ----------
    tree:
        the task tree.
    p:
        number of identical processors.
    rank:
        integer priority rank per node (a permutation of ``0..n-1``);
        among the ready tasks, the smallest rank runs first.

    Returns
    -------
    Schedule
        a valid schedule (validated property in tests): precedence
        respected and no processor oversubscribed. Like all list
        schedules it is a :math:`(2 - 1/p)`-approximation of the optimal
        makespan (Graham's bound).
    """
    return SchedulerEngine(tree, p, rank).run()


def postorder_ranks(
    tree: TaskTree | PreparedTree, order: Sequence[int] | None = None
) -> np.ndarray:
    """Rank of every node in a reference sequential order ``O``.

    The paper uses the memory-optimal sequential postorder as ``O`` for
    both ParInnerFirst (leaf order) and ParDeepestFirst (tie-breaking);
    when ``order`` is None that postorder's rank is served from the
    prepared tree's cache.
    """
    prepared = as_prepared(tree)
    if order is None:
        return prepared.sigma_rank()
    order = np.asarray(order, dtype=np.int64)
    ranks = np.empty(prepared.n, dtype=np.int64)
    ranks[order] = np.arange(prepared.n)
    return ranks
