"""Sparse-matrix substrate: from matrix pattern to weighted assembly tree.

Pipeline (Section 6.2 of the paper):

1. generate / load a symmetric sparse pattern
   (:mod:`repro.matrices.generators`, :mod:`repro.matrices.collection`);
2. apply a fill-reducing ordering (:mod:`repro.matrices.ordering`);
3. symbolic Cholesky: elimination tree + column counts
   (:mod:`repro.matrices.etree`, :mod:`repro.matrices.symbolic`);
4. relaxed node amalgamation into an assembly tree with the paper's
   weight formulas (:mod:`repro.matrices.amalgamation`,
   :mod:`repro.matrices.weights`).
"""

from .generators import grid2d, grid3d, banded, random_symmetric, scale_free, symmetrize
from .etree import elimination_tree, column_counts, etree_heights
from .ordering import (
    minimum_degree,
    rcm,
    nested_dissection,
    natural,
    apply_ordering,
    ORDERINGS,
)
from .symbolic import SymbolicFactorization, symbolic_cholesky
from .weights import node_weights, assembly_weights
from .amalgamation import AssemblyTree, amalgamate
from .collection import MatrixInstance, default_collection, SCALES

__all__ = [
    "grid2d",
    "grid3d",
    "banded",
    "random_symmetric",
    "scale_free",
    "symmetrize",
    "elimination_tree",
    "column_counts",
    "etree_heights",
    "minimum_degree",
    "rcm",
    "nested_dissection",
    "natural",
    "apply_ordering",
    "ORDERINGS",
    "SymbolicFactorization",
    "symbolic_cholesky",
    "node_weights",
    "assembly_weights",
    "AssemblyTree",
    "amalgamate",
    "MatrixInstance",
    "default_collection",
    "SCALES",
]
