"""Metamorphic relations of every parallel registry algorithm.

No oracle needed: scaling an instance's weights by a power of two must
scale the measured objectives by exactly that factor, because every
float operation on the scaled weights stays exact.

* every ``w`` x 2 -> exactly 2 x the makespan, the same peak memory;
* every ``f`` and size x 4 -> exactly 4 x the peak, the same makespan.

The capped algorithms take their cap as a factor of the sequential
peak, so their cap scales with the memory by construction.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.core.simulator import simulate
from repro.workloads.dataset import build_dataset

PROCESSOR_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def trees():
    return [inst.tree for inst in build_dataset("tiny")[:24]]


@pytest.mark.parametrize("name", registry.names("parallel"))
def test_power_of_two_scaling_is_exact(trees, name):
    for tree in trees:
        slow = tree.with_weights(w=tree.w * 2)
        big = tree.with_weights(f=tree.f * 4, sizes=tree.sizes * 4)
        for p in PROCESSOR_COUNTS:
            base = simulate(registry.run(name, tree, p))
            doubled = simulate(registry.run(name, slow, p))
            assert doubled.makespan == 2 * base.makespan, (tree.n, p)
            assert doubled.peak_memory == base.peak_memory, (tree.n, p)
            quadrupled = simulate(registry.run(name, big, p))
            assert quadrupled.makespan == base.makespan, (tree.n, p)
            assert quadrupled.peak_memory == 4 * base.peak_memory, (tree.n, p)
