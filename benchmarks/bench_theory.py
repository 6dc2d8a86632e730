"""Theory benchmarks: Figures 1-5 and Theorems 1-2 measured end to end.

Each benchmark instantiates the paper's construction, runs the real
heuristics/simulator on it, and asserts the closed-form quantity from
the paper. The timing measures the cost of the construction + schedule
+ simulation.
"""

import numpy as np

from repro import registry
from repro.core.simulator import simulate
from repro.pebble import (
    build_gadget,
    decide_gadget,
    deepest_first_memory_tree,
    fork_tree,
    inapprox_ratio_lower_bound,
    inapproximability_tree,
    inner_first_memory_tree,
    random_yes_instance,
)
from repro.sequential import liu_optimal_traversal, optimal_postorder
from .conftest import save_artifact


def test_np_gadget_figure1(benchmark, artifact_dir):
    """Theorem 1: the 3-Partition gadget schedule meets both bounds."""
    rng = np.random.default_rng(42)
    inst = random_yes_instance(3, 12, rng)
    gadget = build_gadget(inst)

    def solve():
        return decide_gadget(gadget)

    schedule = benchmark.pedantic(solve, rounds=1, iterations=1)
    sim = simulate(schedule)
    lines = [
        f"3-Partition m={inst.m} B={inst.target} values={inst.values}",
        f"gadget: n={gadget.tree.n} p={gadget.p}",
        f"makespan {sim.makespan:g} (bound {gadget.makespan_bound:g})",
        f"peak memory {sim.peak_memory:g} (bound {gadget.memory_bound:g})",
    ]
    save_artifact(artifact_dir, "theory_figure1.txt", "\n".join(lines))
    assert sim.makespan <= gadget.makespan_bound
    assert sim.peak_memory <= gadget.memory_bound


def test_inapproximability_figure2(benchmark, artifact_dir):
    """Theorem 2: optimal memory n+delta, CP delta+2, diverging bound."""
    rows = []

    def measure():
        out = []
        for n in (2, 3, 4):
            delta = n * n
            f2 = inapproximability_tree(n, delta)
            liu = liu_optimal_traversal(f2.tree)
            out.append((n, delta, liu.peak_memory, f2.tree.critical_path()))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    for n, delta, mem, cp in results:
        assert mem == n + delta
        assert cp == delta + 2
        rows.append(
            f"n={n} delta={delta}: M_opt={mem:g} CP={cp:g} "
            f"ratio_LB(alpha=2)={inapprox_ratio_lower_bound(n, delta, 2.0):.2f}"
        )
    lbs = [inapprox_ratio_lower_bound(n, n * n, 2.0) for n in (4, 8, 16, 32)]
    assert all(b > a for a, b in zip(lbs, lbs[1:]))  # divergence
    save_artifact(artifact_dir, "theory_figure2.txt", "\n".join(rows))


def test_fork_figure3(benchmark, artifact_dir):
    """ParSubtrees is a p-approximation, tight on forks."""
    p = 4

    def measure():
        out = []
        for k in (4, 16, 64):
            t = fork_tree(p, k)
            sim = simulate(registry.run("ParSubtrees", t, p))
            out.append((k, sim.makespan, k + 1))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    ratios = []
    for k, makespan, optimal in results:
        assert makespan == p * (k - 1) + 2
        ratios.append(makespan / optimal)
        rows.append(
            f"p={p} k={k}: ParSubtrees={makespan:g} optimal={optimal} "
            f"ratio={makespan / optimal:.3f}"
        )
    assert ratios == sorted(ratios) and ratios[-1] > 0.9 * p
    save_artifact(artifact_dir, "theory_figure3.txt", "\n".join(rows))


def test_inner_first_memory_figure4(benchmark, artifact_dir):
    """ParInnerFirst memory is unbounded vs M_seq = p+1."""
    p = 4

    def measure():
        out = []
        for k in (4, 8, 16):
            t = inner_first_memory_tree(p, k)
            seq = optimal_postorder(t).peak_memory
            sim = simulate(registry.run("ParInnerFirst", t, p))
            out.append((k, seq, sim.peak_memory))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    ratios = []
    for k, seq, mem in results:
        assert seq == p + 1
        assert mem >= (k - 1) * (p - 1) + 1
        ratios.append(mem / seq)
        rows.append(f"p={p} k={k}: M_seq={seq:g} ParInnerFirst={mem:g}")
    assert ratios == sorted(ratios)  # grows without bound in k
    save_artifact(artifact_dir, "theory_figure4.txt", "\n".join(rows))


def test_deepest_first_memory_figure5(benchmark, artifact_dir):
    """ParDeepestFirst memory ~ #chains while M_seq = 3."""

    def measure():
        out = []
        for chains in (4, 8, 16, 32):
            t = deepest_first_memory_tree(chains, 6)
            seq = optimal_postorder(t).peak_memory
            sim = simulate(registry.run("ParDeepestFirst", t, chains))
            out.append((chains, seq, sim.peak_memory))
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for chains, seq, mem in results:
        assert seq == 3.0
        assert mem >= chains
        rows.append(f"chains={chains}: M_seq={seq:g} ParDeepestFirst={mem:g}")
    save_artifact(artifact_dir, "theory_figure5.txt", "\n".join(rows))
