"""The paper's four Section 5 heuristics, as a view over the registry.

The algorithm catalogue lives in :mod:`repro.registry`; ``HEURISTICS``
is the Table 1 grid's algorithm axis, in the paper's presentation order.
"""

from __future__ import annotations

from typing import Callable

from repro import registry
from repro.core.schedule import Schedule
from repro.core.tree import TaskTree

__all__ = ["HEURISTICS"]

#: The four heuristics of Section 5, in the paper's presentation order,
#: each its registry entry's ``run``.
HEURISTICS: dict[str, Callable[[TaskTree, int], Schedule]] = {
    name: registry.get(name).run
    for name in ("ParSubtrees", "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst")
}
