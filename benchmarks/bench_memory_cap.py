"""Extension E1: the memory-capped scheduler's trade-off curve.

The paper's conclusion asks for algorithms that "take as input a cap on
the memory usage". This benchmark sweeps the cap from M_seq to
(p+1) M_seq and records the resulting makespan, tracing the
memory/makespan Pareto front the bi-objective analysis of Section 4.2
says cannot be approximated simultaneously -- but can be *navigated*.
"""


from repro import registry
from repro.core.simulator import simulate
from repro.parallel import memory_bounded_schedule
from repro.sequential import optimal_postorder
from .conftest import save_artifact

_FACTORS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0)


def test_memory_cap_tradeoff(benchmark, dataset, artifact_dir):
    p = 8
    sample = dataset[: min(8, len(dataset))]

    def measure():
        rows = []
        for inst in sample:
            mseq = optimal_postorder(inst.tree).peak_memory
            spans = []
            for factor in _FACTORS:
                sch = memory_bounded_schedule(inst.tree, p, factor * mseq)
                sim = simulate(sch)
                assert sim.peak_memory <= factor * mseq + 1e-6
                spans.append(sim.makespan)
            free = simulate(registry.run("ParDeepestFirst", inst.tree, p)).makespan
            rows.append((inst.name, mseq, spans, free))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    header = f"{'tree':<28s} " + " ".join(f"x{f:<5g}" for f in _FACTORS) + "  uncapped"
    lines = [f"memory-capped makespan / uncapped ParDeepestFirst (p={p})", header]
    for name, mseq, spans, free in rows:
        # makespan non-increasing in the cap
        assert all(a >= b - 1e-6 for a, b in zip(spans, spans[1:]))
        cells = " ".join(f"{s / free:6.3f}" for s in spans)
        lines.append(f"{name:<28s} {cells}    1.000")
    save_artifact(artifact_dir, "memory_cap_tradeoff.txt", "\n".join(lines))
    # Loosening the cap never slows the memory-capped scheduler, and even
    # its tightest setting cannot exceed fully sequential processing.
    for name, _, spans, free in rows:
        assert spans[-1] <= spans[0] + 1e-6, name
        tree = next(i.tree for i in sample if i.name == name)
        assert spans[0] <= tree.total_work() + 1e-6, name
