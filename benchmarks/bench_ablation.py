"""Ablation benchmarks of the design choices called out in DESIGN.md.

* **A1 -- splitting selection**: Algorithm 2's cost-minimising step
  choice vs the naive "first splitting with <= p subtrees" strategy;
* **A2 -- sequential base order**: optimal postorder vs naive postorder
  vs Liu's exact traversal as the reference order (paper Section 6.1
  argues optimal postorder suffices);
* **A3 -- amalgamation granularity**: how the cap (1/2/4/16) moves the
  heuristics' memory/makespan trade-off;
* **A4 -- priority-detail ablations**: ParInnerFirst with a naive leaf
  order (paper: "It makes heuristic sense that this postorder is an
  optimal sequential postorder") and ParDeepestFirst with hop depths
  instead of w-weighted depths (paper Section 5.3's depth definition).
"""

import numpy as np

from repro import registry
from repro.core.simulator import simulate
from repro.parallel import par_subtrees
from repro.parallel.split_subtrees import split_subtrees
from repro.sequential import (
    liu_optimal_traversal,
    natural_postorder,
    optimal_postorder,
)
from .conftest import save_artifact


def test_a1_splitting_selection(benchmark, dataset, artifact_dir):
    """Lemma 1's argmin over all splitting steps vs stopping as soon as
    at most p subtrees exist: the argmin can only be better."""
    p = 4

    def measure():
        gains = []
        for inst in dataset:
            res = split_subtrees(inst.tree, p)
            work = inst.tree.subtree_work()
            # naive: the state right after the first pop (root split once)
            root = inst.tree.root
            kids = sorted(
                inst.tree.children(root), key=lambda c: float(work[c]), reverse=True
            )
            if kids:
                par = float(work[kids[0]])
                seq = float(inst.tree.w[root]) + sum(float(work[c]) for c in kids[p:])
                naive = par + seq
            else:
                naive = float(work[root])
            gains.append(naive / res.cost)
        return gains

    gains = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact(
        artifact_dir,
        "ablation_a1_splitting.txt",
        f"naive-split / optimal-split makespan ratio over {len(gains)} trees: "
        f"mean {np.mean(gains):.3f}, max {np.max(gains):.3f}",
    )
    assert min(gains) >= 1.0 - 1e-9  # Lemma 1: the argmin is optimal


def test_a2_sequential_base_order(benchmark, dataset, artifact_dir):
    """Paper 6.1: the optimal postorder is a near-optimal, cheap stand-in
    for Liu's exact algorithm as the sequential reference."""

    def measure():
        rows = []
        for inst in dataset[:8]:
            po = optimal_postorder(inst.tree).peak_memory
            nat = natural_postorder(inst.tree).peak_memory
            liu = liu_optimal_traversal(inst.tree).peak_memory
            rows.append((inst.name, liu, po, nat))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'tree':<28s} {'liu':>12s} {'opt-po':>12s} {'naive-po':>12s}"]
    po_gaps = []
    for name, liu, po, nat in rows:
        assert liu <= po + 1e-9 <= nat + 1e-9
        po_gaps.append(po / liu)
        lines.append(f"{name:<28s} {liu:>12.4g} {po:>12.4g} {nat:>12.4g}")
    lines.append(
        f"optimal postorder within {100 * (np.max(po_gaps) - 1):.2f}% of exact "
        f"(paper: 1% average gap, optimal in 95.8% of cases)"
    )
    save_artifact(artifact_dir, "ablation_a2_base_order.txt", "\n".join(lines))
    assert np.max(po_gaps) <= 1.25


def test_a3_amalgamation_granularity(benchmark, dataset, artifact_dir):
    """Coarser assembly trees shift both objectives; the heuristic
    ranking (ParSubtrees for memory) is stable across caps."""
    p = 4
    by_cap: dict[int, list] = {}
    for inst in dataset:
        by_cap.setdefault(inst.amalgamation, []).append(inst)

    def measure():
        out = {}
        for cap, instances in sorted(by_cap.items()):
            mem_sub, mem_inner = [], []
            for inst in instances:
                mseq = optimal_postorder(inst.tree).peak_memory
                mem_sub.append(simulate(par_subtrees(inst.tree, p)).peak_memory / mseq)
                mem_inner.append(
                    simulate(registry.run("ParInnerFirst", inst.tree, p)).peak_memory / mseq
                )
            out[cap] = (float(np.mean(mem_sub)), float(np.mean(mem_inner)))
        return out

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'cap':>4s} {'ParSubtrees mem ratio':>22s} {'ParInnerFirst mem ratio':>24s}"]
    for cap, (sub, inner) in sorted(result.items()):
        lines.append(f"{cap:>4d} {sub:>22.3f} {inner:>24.3f}")
    save_artifact(artifact_dir, "ablation_a3_amalgamation.txt", "\n".join(lines))
    # ranking stability: ParSubtrees <= ParInnerFirst memory at every cap
    for cap, (sub, inner) in result.items():
        assert sub <= inner + 0.5


def test_a4_priority_details(benchmark, dataset, artifact_dir):
    """The two priority details of Section 5.2/5.3, ablated."""
    p = 8
    sample = dataset[: min(16, len(dataset))]

    def measure():
        mem_ratio, mk_ratio = [], []
        for inst in sample:
            tree = inst.tree
            base_mem = simulate(registry.run("ParInnerFirst", tree, p)).peak_memory
            naive_mem = simulate(registry.run("ParInnerFirst/naiveO", tree, p)).peak_memory
            mem_ratio.append(naive_mem / base_mem)
            base_mk = simulate(registry.run("ParDeepestFirst", tree, p)).makespan
            hop_mk = simulate(registry.run("ParDeepestFirst/hops", tree, p)).makespan
            mk_ratio.append(hop_mk / base_mk)
        return (
            float(np.mean(mem_ratio)),
            float(np.max(mem_ratio)),
            float(np.mean(mk_ratio)),
            float(np.max(mk_ratio)),
        )

    mem_mean, mem_max, mk_mean, mk_max = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    save_artifact(
        artifact_dir,
        "ablation_a4_priorities.txt",
        (
            f"ParInnerFirst naive-O / optimal-O memory ratio: "
            f"mean {mem_mean:.3f}, max {mem_max:.3f}\n"
            f"ParDeepestFirst hop / w-weighted makespan ratio: "
            f"mean {mk_mean:.3f}, max {mk_max:.3f}"
        ),
    )
    # the ablated variants must not *win* systematically: the paper's
    # choices are at least as good on average (small tolerance for noise)
    assert mem_mean >= 0.9
    assert mk_mean >= 0.98
