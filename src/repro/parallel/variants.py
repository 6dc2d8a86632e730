"""Heuristic variants for ablation studies.

Section 5 makes two low-key design remarks that deserve measurement:

* ParInnerFirst's leaf order "needs to be a sequential postorder. It
  makes heuristic sense that this postorder is an *optimal* sequential
  postorder" -- ``ParInnerFirst/naiveO`` drops the optimality and uses
  the arbitrary (index-order) postorder instead;
* ParDeepestFirst's depth is "the *w-weighted* length of the path" --
  ``ParDeepestFirst/hops`` uses plain hop counts instead, degrading the
  critical-path awareness on heterogeneous trees.

Both variants are registry entries on the same list-scheduling engine
(``registry.run("ParInnerFirst/naiveO", tree, p)``), so any performance
difference is attributable to the ablated choice alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import lex_rank
from repro.core.prepared import PreparedTree, as_prepared
from repro.core.tree import TaskTree
from .par_inner_first import _build_rank as _inner_first_rank

__all__ = ["par_inner_first_naive_rank", "par_hop_deepest_first_rank"]


def par_inner_first_naive_rank(tree: TaskTree | PreparedTree) -> np.ndarray:
    """Priority rank of ParInnerFirst with the index-order postorder as
    ``O`` (cached on the prepared tree under the variant's registry key)."""
    prepared = as_prepared(tree)
    t = prepared.tree
    return prepared.rank_for(
        "ParInnerFirst/naiveO", lambda: _inner_first_rank(t, t.postorder_positions())
    )


def par_hop_deepest_first_rank(tree: TaskTree | PreparedTree) -> np.ndarray:
    """Priority rank of ParDeepestFirst with hop-count depth instead of
    w-weighted depth (cached on the prepared tree under the variant's
    registry key).

    An inner node counts one hop deeper than its edge depth: hop depth
    ignores the work still ahead of a ready node, so without the boost a
    ready inner node at depth ``d`` would lose to any leaf at depth
    ``d+1`` even though completing the inner node is what unlocks its
    ancestors. The boost extends the paper's "inner nodes before leaves"
    tie-break (rule 2 of ParDeepestFirst) across adjacent depth classes:
    an inner node at depth ``d`` ties with leaves at depth ``d+1`` and
    wins the tie. (An earlier revision computed this term as
    ``0 if leaf else 0`` -- a no-op; pinned by a regression test.)
    """
    prepared = as_prepared(tree)

    def build() -> np.ndarray:
        t = prepared.tree
        leaf = t.leaf_mask()
        eff_depth = t.depths() + np.where(leaf, 0, 1)
        return lex_rank(-eff_depth, leaf.astype(np.int64), prepared.sigma_rank())

    return prepared.rank_for("ParDeepestFirst/hops", build)
