"""Pebble-Game model: complexity gadgets and counterexample trees (Section 4)."""

from .three_partition import (
    ThreePartitionInstance,
    solve_three_partition,
    random_yes_instance,
)
from .gadget import PebbleGadget, build_gadget, schedule_from_partition, decide_gadget
from .counterexamples import (
    Fig2Tree,
    inapproximability_tree,
    inapprox_ratio_lower_bound,
    fork_tree,
    inner_first_memory_tree,
    deepest_first_memory_tree,
)

__all__ = [
    "ThreePartitionInstance",
    "solve_three_partition",
    "random_yes_instance",
    "PebbleGadget",
    "build_gadget",
    "schedule_from_partition",
    "decide_gadget",
    "Fig2Tree",
    "inapproximability_tree",
    "inapprox_ratio_lower_bound",
    "fork_tree",
    "inner_first_memory_tree",
    "deepest_first_memory_tree",
]
