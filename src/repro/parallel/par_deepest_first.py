"""``ParDeepestFirst`` (Section 5.3): critical-path-driven list scheduling.

The depth of a node is the *w-weighted* length of the path from the node
to the root, inclusive of the node itself; the deepest node is the first
node of the critical path. Priorities:

1. deepest nodes first (w-weighted path length to root);
2. inner nodes before leaf nodes (at equal depth);
3. leaves of equal depth in the order of the reference sequential
   postorder ``O`` -- a "reasonable" order that avoids alternating
   between leaves of different parents, which would hurt memory.

The priority is built as vectorized numpy key columns collapsed into a
single integer rank per node (:func:`repro.core.engine.lex_rank`), so
the setup is one numpy sweep and the event loop stays integer-only.
Run it as ``registry.run("ParDeepestFirst", tree, p)``.

Focusing entirely on the makespan, its memory usage is unbounded
relative to the sequential optimum (Figure 5, reproduced in the theory
benchmarks), but its makespan is near-optimal in practice (Table 1:
best or within 5% of best in 99.9% of scenarios).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import lex_rank
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.tree import TaskTree

__all__ = ["par_deepest_first_rank"]


def par_deepest_first_rank(tree: TaskTree | PreparedTree) -> np.ndarray:
    """Priority rank of every node under the ParDeepestFirst order.

    Equivalent to the historical per-node key
    ``(-wdepth, is_leaf, rank_in_O)``, with ``O`` Liu's optimal
    postorder. Built once per prepared tree and cached under the
    priority spec ``"ParDeepestFirst"``.
    """
    prepared = as_prepared(tree)

    def build() -> np.ndarray:
        leaf = prepared.tree.leaf_mask()
        return lex_rank(
            -prepared.weighted_depths(), leaf.astype(np.int64), prepared.sigma_rank()
        )

    return prepared.rank_for("ParDeepestFirst", build)
