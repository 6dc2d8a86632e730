#!/usr/bin/env python3
"""Navigating the memory/makespan trade-off with a memory cap.

Theorem 2 shows no schedule can approximate both objectives at once --
but given a *memory budget*, the capped scheduler (the paper's
future-work extension) finds the best makespan it can under that budget.
This example sweeps the cap from the sequential optimum up to an
unconstrained level and prints the resulting Pareto-style curve.

Run:  python examples/memory_cap_tradeoff.py
"""

from repro import registry
from repro.core import memory_lower_bound, simulate
from repro.matrices import (
    amalgamate,
    apply_ordering,
    grid2d,
    minimum_degree,
    symbolic_cholesky,
)
from repro.parallel import memory_bounded_schedule


def main() -> None:
    matrix = grid2d(20)
    symbolic = symbolic_cholesky(apply_ordering(matrix, minimum_degree(matrix)))
    tree = amalgamate(symbolic, max_amalgamation=4).tree
    p = 8
    mseq = memory_lower_bound(tree)
    free = simulate(registry.run("ParDeepestFirst", tree, p))
    print(f"assembly tree: {tree.n} nodes; p = {p}")
    print(f"sequential memory optimum M_seq = {mseq:.4g}")
    print(f"unconstrained ParDeepestFirst: makespan {free.makespan:.5g}, "
          f"memory {free.peak_memory / mseq:.2f} x M_seq\n")
    print(f"{'cap / M_seq':>12s} {'makespan':>12s} {'slowdown':>9s} {'peak / M_seq':>13s}")
    for factor in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0):
        schedule = memory_bounded_schedule(tree, p, cap=factor * mseq)
        result = simulate(schedule)
        print(
            f"{factor:>12.2f} {result.makespan:>12.5g} "
            f"{result.makespan / free.makespan:>9.3f} "
            f"{result.peak_memory / mseq:>13.3f}"
        )
    print("\nEvery row respects its cap; loosening the budget buys speed.")


if __name__ == "__main__":
    main()
