"""``ParInnerFirst`` (Section 5.2): parallel postorder by list scheduling.

The parallel postorder rules of the paper:

1. if an inner node is ready (all input files in memory), execute it;
2. otherwise process the leaf closest to the previously selected leaf.

Realised with the generic event-based list scheduler and the priority
order: (a) inner nodes before leaves, inner nodes by non-increasing
depth; (b) leaves in the order of a reference sequential postorder ``O``
(the memory-optimal one, so that rule 2's leaf locality is inherited).

The priority is built as vectorized numpy key columns collapsed into a
single integer rank per node (:func:`repro.core.engine.lex_rank`), so
the setup is one numpy sweep and the event loop stays integer-only.
Run it as ``registry.run("ParInnerFirst", tree, p)``.

With one processor this reproduces ``O`` exactly (tested); with ``p``
processors it is a list schedule, hence a :math:`(2-1/p)`-approximation
for the makespan; its memory usage is *unbounded* relative to the
sequential optimum (Figure 4, reproduced in the theory benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import lex_rank
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.tree import TaskTree

__all__ = ["par_inner_first_rank"]


def _build_rank(tree: TaskTree, o_rank: np.ndarray) -> np.ndarray:
    """The ParInnerFirst rank for the reference order whose rank per
    node is ``o_rank`` (also the naive-``O`` ablation's builder)."""
    depth = tree.depths()
    leaf = tree.leaf_mask()
    return lex_rank(
        leaf.astype(np.int64),  # inner nodes before leaves
        np.where(leaf, o_rank, -depth),  # leaves in O; inner by depth
        np.where(leaf, np.arange(tree.n, dtype=np.int64), o_rank),
    )


def par_inner_first_rank(tree: TaskTree | PreparedTree) -> np.ndarray:
    """Priority rank of every node under the ParInnerFirst order.

    Equivalent to the historical per-node key: leaves sort as
    ``(1, rank_in_O, node)``, inner nodes as ``(0, -depth, rank_in_O)``,
    with ``O`` Liu's optimal postorder. Built once per prepared tree and
    cached under the priority spec ``"ParInnerFirst"``.
    """
    prepared = as_prepared(tree)
    return prepared.rank_for(
        "ParInnerFirst", lambda: _build_rank(prepared.tree, prepared.sigma_rank())
    )
