"""Parallel scheduling heuristics (Section 5 of the paper).

Every algorithm here is run through the central registry,
``registry.run(name, tree, p)`` (:mod:`repro.registry`). The list
heuristics (ParInnerFirst, ParDeepestFirst, their ablation variants and
the memory-capped extension) are priority ranks for the unified event
engine in :mod:`repro.core.engine`; this package holds their rank
builders and the subtree-splitting family.
"""

from .split_subtrees import SplitResult, split_subtrees
from .par_subtrees import par_subtrees, par_subtrees_optim
from .par_inner_first import par_inner_first_rank
from .par_deepest_first import par_deepest_first_rank
from .memory_bounded import MemoryCapError, memory_bounded_schedule
from .memory_aware_subtrees import par_subtrees_memory_aware, predicted_parallel_memory
from .heuristics import HEURISTICS

__all__ = [
    "SplitResult",
    "split_subtrees",
    "par_subtrees",
    "par_subtrees_optim",
    "par_inner_first_rank",
    "par_deepest_first_rank",
    "MemoryCapError",
    "memory_bounded_schedule",
    "par_subtrees_memory_aware",
    "predicted_parallel_memory",
    "HEURISTICS",
]
