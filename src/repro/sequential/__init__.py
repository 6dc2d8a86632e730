"""Sequential (one-processor) memory-optimal traversal algorithms."""

from .traversal import (
    TraversalResult,
    traversal_peak_memory,
    traversal_profile,
    check_topological,
)
from .postorder import optimal_postorder, postorder_peaks, natural_postorder
from .liu import liu_optimal_traversal, hill_valley_segments, Segment

__all__ = [
    "TraversalResult",
    "traversal_peak_memory",
    "traversal_profile",
    "check_topological",
    "optimal_postorder",
    "postorder_peaks",
    "natural_postorder",
    "liu_optimal_traversal",
    "hill_valley_segments",
    "Segment",
]
