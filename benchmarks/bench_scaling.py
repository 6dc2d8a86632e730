"""Micro-benchmarks of the core algorithms (complexity sanity checks).

These time the individual building blocks on a mid-sized tree so that
``pytest-benchmark``'s statistics catch accidental complexity
regressions (the paper's implementations are O(n log n) except Liu's
exact algorithm at O(n^2)).
"""

import numpy as np
import pytest

from repro import registry
from repro.parallel import HEURISTICS, split_subtrees
from repro.sequential import liu_optimal_traversal, optimal_postorder
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture(scope="module")
def tree5k():
    return random_weighted_tree(5000, np.random.default_rng(1))


def test_scaling_optimal_postorder(benchmark, tree5k):
    result = benchmark(optimal_postorder, tree5k)
    assert len(result.order) == tree5k.n


def test_scaling_liu_exact(benchmark, tree5k):
    result = benchmark(liu_optimal_traversal, tree5k)
    assert result.peak_memory <= optimal_postorder(tree5k).peak_memory + 1e-9


def test_scaling_split_subtrees(benchmark, tree5k):
    result = benchmark(split_subtrees, tree5k, 16)
    assert result.cost <= tree5k.total_work() + 1e-9


@pytest.mark.parametrize("name", list(HEURISTICS))
def test_scaling_heuristics(benchmark, tree5k, name):
    schedule = benchmark(registry.run, name, tree5k, 16)
    assert schedule.makespan >= tree5k.critical_path() - 1e-9
