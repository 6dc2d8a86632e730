"""Workload generation: synthetic random trees and the paper-analog data set."""

from .synthetic import (
    random_attachment_tree,
    deep_tree,
    flat_tree,
    caterpillar,
    complete_kary_tree,
    random_weighted_tree,
)
from .dataset import TreeInstance, build_dataset, PROCESSOR_COUNTS, AMALGAMATIONS

__all__ = [
    "random_attachment_tree",
    "deep_tree",
    "flat_tree",
    "caterpillar",
    "complete_kary_tree",
    "random_weighted_tree",
    "TreeInstance",
    "build_dataset",
    "PROCESSOR_COUNTS",
    "AMALGAMATIONS",
]
