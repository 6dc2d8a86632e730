"""The experimental data set: assembly trees analogous to the paper's 608.

The paper builds 608 assembly trees: 76 UFL matrices x 2 orderings
(MeTiS, amd) x 4 relaxed-amalgamation settings (1, 2, 4, 16). We build
the same cross product over the synthetic matrix collection and our
orderings (nested dissection ~ MeTiS, minimum degree ~ amd, plus RCM for
the deep-chain regime), yielding 64-96 trees per scale with the same
qualitative diversity of shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.tree import TaskTree
from repro.matrices import (
    amalgamate,
    apply_ordering,
    default_collection,
    minimum_degree,
    nested_dissection,
    rcm,
    symbolic_cholesky,
)

__all__ = ["TreeInstance", "build_dataset", "PROCESSOR_COUNTS", "AMALGAMATIONS"]

#: The paper's processor sweep (Section 6.2).
PROCESSOR_COUNTS: tuple[int, ...] = (2, 4, 8, 16, 32)

#: The paper's relaxed-amalgamation sweep.
AMALGAMATIONS: tuple[int, ...] = (1, 2, 4, 16)

_ORDERINGS = {
    "nd": nested_dissection,  # the MeTiS analogue
    "md": minimum_degree,  # the amd analogue
    "rcm": rcm,  # deep chain-like trees
}


@dataclass(frozen=True)
class TreeInstance:
    """One tree of the data set, with its provenance.

    ``name`` encodes matrix, ordering and amalgamation cap, e.g.
    ``grid2d-24/nd/a4``.
    """

    name: str
    tree: TaskTree
    matrix_name: str
    ordering: str
    amalgamation: int
    meta: dict = field(default_factory=dict, compare=False)


def build_dataset(
    scale: str = "small",
    orderings: Iterable[str] = ("nd", "md"),
    amalgamations: Iterable[int] = AMALGAMATIONS,
    seed: int = 2013,
    min_nodes: int = 16,
) -> list[TreeInstance]:
    """Build the full tree data set at the requested scale.

    Parameters
    ----------
    scale:
        collection scale (``tiny`` / ``small`` / ``medium`` / ``large``;
        the ``large`` tier builds much bigger random and multifrontal
        assembly trees -- sized for campaigns on a worker pool, i.e.
        ``run_campaign(..., runtime=SupervisorPool(workers=N))``).
    orderings:
        subset of ``{"nd", "md", "rcm"}`` (default: the paper's two).
    amalgamations:
        relaxed-amalgamation caps (default: the paper's 1, 2, 4, 16).
    seed:
        collection seed; the data set is fully deterministic.
    min_nodes:
        drop assembly trees smaller than this (degenerate instances).
    """
    instances: list[TreeInstance] = []
    for mat in default_collection(scale, seed=seed):
        for oname in orderings:
            order_fn = _ORDERINGS[oname]
            permuted = apply_ordering(mat.matrix, order_fn(mat.matrix))
            sym = symbolic_cholesky(permuted)
            for cap in amalgamations:
                assembly = amalgamate(sym, cap)
                if assembly.tree.n < min_nodes:
                    continue
                instances.append(
                    TreeInstance(
                        name=f"{mat.name}/{oname}/a{cap}",
                        tree=assembly.tree,
                        matrix_name=mat.name,
                        ordering=oname,
                        amalgamation=cap,
                        meta={
                            "matrix_n": mat.n,
                            "tree_n": assembly.tree.n,
                            "height": assembly.tree.height(),
                            "max_degree": assembly.tree.max_degree(),
                        },
                    )
                )
    return instances
