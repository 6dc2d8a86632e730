"""Guarantee benchmarks: the proven bounds of Section 5, measured.

* ParSubtrees peak memory <= (p+1) * M_seq (+ p*max f slack from the
  proof's retained-outputs term);
* every list scheduler satisfies Graham's bound
  ``Cmax <= W/p + (1-1/p) * CP``;
* the memory ratios of ParInnerFirst / ParDeepestFirst are unbounded in
  general but finite on the data set (reported for context).
"""

import numpy as np

from repro import registry
from repro.core.simulator import simulate
from repro.parallel import par_subtrees
from repro.sequential import optimal_postorder
from .conftest import bench_processors, save_artifact


def test_parsubtrees_memory_guarantee(benchmark, dataset, artifact_dir):
    def measure():
        worst = 0.0
        for inst in dataset:
            mseq = optimal_postorder(inst.tree).peak_memory
            fmax = float(inst.tree.f.max())
            for p in bench_processors():
                sim = simulate(par_subtrees(inst.tree, p))
                assert sim.peak_memory <= (p + 1) * mseq + p * fmax + 1e-6
                worst = max(worst, sim.peak_memory / mseq)
        return worst

    worst = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact(
        artifact_dir,
        "guarantee_parsubtrees_memory.txt",
        f"worst observed ParSubtrees memory ratio: {worst:.3f} "
        f"(proved bound: p+1 = {max(bench_processors()) + 1})",
    )
    assert worst <= max(bench_processors()) + 1 + 1e-6


def test_graham_bound(benchmark, dataset, artifact_dir):
    def measure():
        worst = 0.0
        for inst in dataset:
            W = inst.tree.total_work()
            CP = inst.tree.critical_path()
            for p in bench_processors():
                for name in ("ParInnerFirst", "ParDeepestFirst"):
                    sch = registry.run(name, inst.tree, p)
                    bound = W / p + (1 - 1 / p) * CP
                    assert sch.makespan <= bound + 1e-6
                    lb = max(W / p, CP)
                    worst = max(worst, sch.makespan / lb)
        return worst

    worst = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact(
        artifact_dir,
        "guarantee_graham.txt",
        f"worst observed list-scheduling makespan ratio vs LB: {worst:.3f} "
        f"(Graham guarantees < 2)",
    )
    assert worst < 2.0 + 1e-9


def test_memory_ratio_spread(benchmark, dataset, artifact_dir):
    """Context: observed memory ratios per heuristic (paper: up to >100)."""

    def measure():
        ratios = {"ParInnerFirst": [], "ParDeepestFirst": []}
        for inst in dataset:
            mseq = optimal_postorder(inst.tree).peak_memory
            for p in bench_processors():
                ratios["ParInnerFirst"].append(
                    simulate(registry.run("ParInnerFirst", inst.tree, p)).peak_memory / mseq
                )
                ratios["ParDeepestFirst"].append(
                    simulate(registry.run("ParDeepestFirst", inst.tree, p)).peak_memory / mseq
                )
        return {k: (float(np.mean(v)), float(np.max(v))) for k, v in ratios.items()}

    spread = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"{name}: mean ratio {mean:.2f}, max ratio {mx:.2f}"
        for name, (mean, mx) in spread.items()
    ]
    save_artifact(artifact_dir, "guarantee_memory_spread.txt", "\n".join(lines))
    # ParDeepestFirst uses at least as much memory as ParInnerFirst on average.
    assert spread["ParDeepestFirst"][0] >= spread["ParInnerFirst"][0] - 0.25
