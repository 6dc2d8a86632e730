"""Scaling benchmark: seed tree core + sequential traversals vs. the
CSR / vectorized rewrite.

Three kernels are timed against the seed implementations (embedded
verbatim below for a stable baseline, with children lists rebuilt the
way the seed ``TaskTree.__post_init__`` did):

* **construction** -- validation, children lists and the cached
  postorder of ``TaskTree`` (seed: two Python loops over all nodes;
  now: one stable argsort + pointer doubling + level-synchronous
  subtree-size sweep);
* **optimal_postorder** -- Liu's 1986 memory-optimal postorder (seed:
  per-node ``sorted()`` plus a DFS emission; now: one segmented argsort
  per level, padded row-wise cumsums, closed-form position emission);
* **liu** -- Liu's 1987 exact traversal (seed: per-node Python profile
  recomputation; now: interleaved-cumsum profiles, array segment
  merges, incremental single-child re-segmentation).

Every timed pair is asserted bit-identical (orders and peaks).

``--dispatch`` instead times the dispatched path (the compiled library
where it builds and passes its probe) against the Python path, its
fallback and oracle: ``optimal_postorder`` (the per-node loop plus the
closed-form emission) and Algorithm 2's split (a fresh ``SplitPlan``
and its split for p = 2, 4, 8, 16), at each size and on the 64 trees of
the paper data set (``build_dataset("small")``). Results must match
byte for byte (asserted).

``--smoke`` runs both modes at small sizes (CI guard against bit-rot);
``--append`` appends the payload to an existing trajectory file instead
of overwriting it (the file then holds a JSON array of entries).

Writes ``BENCH_sequential.json`` (repo root by default), same row format
as ``BENCH_engine.json``, so future PRs have a perf trajectory::

    PYTHONPATH=src python benchmarks/bench_sequential.py
    PYTHONPATH=src python benchmarks/bench_sequential.py --smoke
    PYTHONPATH=src python benchmarks/bench_sequential.py --sizes 1000 10000
    PYTHONPATH=src python benchmarks/bench_sequential.py --dispatch --append
"""

from __future__ import annotations

import argparse
import platform
import time

import numpy as np

from bench_engine import write_payload

from repro.core.tree import NO_PARENT, TaskTree
from repro.sequential.liu import liu_optimal_traversal
from repro.sequential.postorder import optimal_postorder
from repro.workloads.synthetic import random_weighted_tree


# ----------------------------------------------------------------------
# the seed implementations, embedded verbatim for a stable baseline
# ----------------------------------------------------------------------
def legacy_construction(parent, w, f, sizes):
    """The seed ``TaskTree.__post_init__``: validation + Python-loop
    children lists + iterative DFS postorder."""
    parent = np.ascontiguousarray(np.asarray(parent, dtype=np.int64))
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    f = np.ascontiguousarray(np.asarray(f, dtype=np.float64))
    sizes = np.ascontiguousarray(np.asarray(sizes, dtype=np.float64))
    n = parent.shape[0]
    if not (w.shape[0] == f.shape[0] == sizes.shape[0] == n):
        raise ValueError("parent, w, f, sizes must have the same length")
    roots = np.flatnonzero(parent == NO_PARENT)
    if roots.shape[0] != 1:
        raise ValueError("expected exactly one root")
    if np.any((parent < NO_PARENT) | (parent >= n)):
        raise ValueError("parent indices out of range")
    if np.any(parent == np.arange(n)):
        raise ValueError("a node cannot be its own parent")
    if np.any(w < 0) or np.any(f < 0) or np.any(sizes < 0):
        raise ValueError("weights must be non-negative")
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT:
            children[p].append(i)
    kids = tuple(tuple(c) for c in children)
    root = int(np.flatnonzero(parent == NO_PARENT)[0])
    out: list[int] = []
    stack: list[int] = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(kids[node])
    if len(out) != n:
        raise ValueError("parent structure contains a cycle")
    out.reverse()
    return kids, tuple(out)


def legacy_input_size(tree, kids, i):
    return float(sum(tree.f[j] for j in kids[i]))


def legacy_postorder_peaks(tree, kids, porder):
    n = tree.n
    peaks = np.zeros(n, dtype=np.float64)
    for i in porder:
        i = int(i)
        children = kids[i]
        if not children:
            peaks[i] = tree.sizes[i] + tree.f[i]
            continue
        ordered = sorted(children, key=lambda j: peaks[j] - tree.f[j], reverse=True)
        acc = 0.0
        best = 0.0
        for j in ordered:
            best = max(best, acc + peaks[j])
            acc += tree.f[j]
        best = max(best, acc + tree.sizes[i] + tree.f[i])
        peaks[i] = best
    return peaks


def legacy_optimal_postorder(tree, kids, porder):
    peaks = legacy_postorder_peaks(tree, kids, porder)
    n = tree.n
    order = np.empty(n, dtype=np.int64)
    idx = 0
    root = int(np.flatnonzero(tree.parent == NO_PARENT)[0])
    sorted_children: dict[int, list[int]] = {}
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        node, cursor = stack.pop()
        if node not in sorted_children:
            sorted_children[node] = sorted(
                kids[node], key=lambda j: peaks[j] - tree.f[j], reverse=True
            )
        children = sorted_children[node]
        if cursor < len(children):
            stack.append((node, cursor + 1))
            stack.append((children[cursor], 0))
        else:
            del sorted_children[node]
            order[idx] = node
            idx += 1
    return order, float(peaks[root])


def legacy_liu(tree, kids, porder):
    import heapq

    class Seg:
        __slots__ = ("hill", "valley", "nodes")

        def __init__(self, hill, valley, nodes):
            self.hill, self.valley, self.nodes = hill, valley, nodes

        @property
        def drop(self):
            return self.hill - self.valley

    def profile(order):
        m = len(order)
        during = np.empty(m, dtype=np.float64)
        after = np.empty(m, dtype=np.float64)
        mem = 0.0
        for k, node in enumerate(order):
            node = int(node)
            inputs = legacy_input_size(tree, kids, node)
            during[k] = mem + tree.sizes[node] + tree.f[node]
            mem = mem + tree.f[node] - inputs
            after[k] = mem
        return during, after

    def hill_valley(order):
        during, after = profile(order)
        segments = []
        start = 0
        m = len(order)
        while start < m:
            rel_h = int(np.argmax(during[start:])) + start
            rel_v = int(np.argmin(after[rel_h:])) + rel_h
            segments.append(
                Seg(float(during[rel_h]), float(after[rel_v]), tuple(order[start : rel_v + 1]))
            )
            start = rel_v + 1
        return segments

    def merge(child_segments):
        heap = []
        for c, segs in enumerate(child_segments):
            if segs:
                heapq.heappush(heap, (-segs[0].drop, c, 0))
        merged: list[int] = []
        while heap:
            _, c, k = heapq.heappop(heap)
            merged.extend(child_segments[c][k].nodes)
            if k + 1 < len(child_segments[c]):
                heapq.heappush(heap, (-child_segments[c][k + 1].drop, c, k + 1))
        return merged

    orders: dict[int, list[int]] = {}
    segments: dict[int, list] = {}
    for i in porder:
        i = int(i)
        children = kids[i]
        if not children:
            order = [i]
        else:
            order = merge([segments[c] for c in children])
            order.append(i)
            for c in children:
                del orders[c], segments[c]
        orders[i] = order
        segments[i] = hill_valley(order)
    root = int(np.flatnonzero(tree.parent == NO_PARENT)[0])
    peak = max(s.hill for s in segments[root])
    return np.asarray(orders[root], dtype=np.int64), float(peak)


# ----------------------------------------------------------------------
def best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_kernel(kernel, n, legacy_fn, vectorized_fn, check_fn, repeats):
    t_legacy, ref = best_of(legacy_fn, repeats)
    t_vec, got = best_of(vectorized_fn, repeats)
    check_fn(ref, got)
    row = {
        "kernel": kernel,
        "n": int(n),
        "legacy_s": round(t_legacy, 6),
        "vectorized_s": round(t_vec, 6),
        "speedup": round(t_legacy / t_vec, 3) if t_vec > 0 else float("inf"),
    }
    print(
        f"{kernel:>18s} n={row['n']:>7d}  legacy {row['legacy_s']:9.4f}s  "
        f"vectorized {row['vectorized_s']:9.4f}s  speedup {row['speedup']:6.2f}x"
    )
    return row


def run_bench(sizes, liu_sizes, repeats, seed):
    rows = []
    for n in sizes:
        rng = np.random.default_rng(seed)
        tree = random_weighted_tree(int(n), rng)
        parent = tree.parent.copy()
        w, f, sz = tree.w.copy(), tree.f.copy(), tree.sizes.copy()
        kids, porder_t = legacy_construction(parent, w, f, sz)
        porder = np.asarray(porder_t, dtype=np.int64)

        rows.append(
            bench_kernel(
                "construction",
                n,
                lambda: legacy_construction(parent, w, f, sz)[1],
                lambda: TaskTree(parent, w, f, sz).postorder(),
                lambda ref, got: _check(
                    np.array_equal(np.asarray(ref, dtype=np.int64), got), "postorder"
                ),
                repeats,
            )
        )
        rows.append(
            bench_kernel(
                "optimal_postorder",
                n,
                lambda: legacy_optimal_postorder(tree, kids, porder),
                lambda: optimal_postorder(tree),
                lambda ref, got: _check(
                    np.array_equal(ref[0], got.order) and ref[1] == got.peak_memory,
                    "optimal_postorder",
                ),
                repeats,
            )
        )
        if n in set(liu_sizes):
            rows.append(
                bench_kernel(
                    "liu",
                    n,
                    lambda: legacy_liu(tree, kids, porder),
                    lambda: liu_optimal_traversal(tree),
                    lambda ref, got: _check(
                        np.array_equal(ref[0], got.order) and ref[1] == got.peak_memory,
                        "liu",
                    ),
                    max(1, repeats - 1),
                )
            )
    # the historical worst case: a chain, where the seed recomputed the
    # full profile at every node (quadratic) and the incremental
    # re-segmentation is amortised linear
    n_chain = min(2000, max(sizes))
    rng = np.random.default_rng(seed)
    chain = TaskTree.from_parents(
        [NO_PARENT] + list(range(n_chain - 1)),
        w=rng.integers(1, 10, n_chain).astype(np.float64),
        f=rng.integers(1, 10, n_chain).astype(np.float64),
        sizes=rng.integers(0, 5, n_chain).astype(np.float64),
    )
    c_kids, c_porder_t = legacy_construction(chain.parent, chain.w, chain.f, chain.sizes)
    c_porder = np.asarray(c_porder_t, dtype=np.int64)
    rows.append(
        bench_kernel(
            "liu_chain",
            n_chain,
            lambda: legacy_liu(chain, c_kids, c_porder),
            lambda: liu_optimal_traversal(chain),
            lambda ref, got: _check(
                np.array_equal(ref[0], got.order) and ref[1] == got.peak_memory,
                "liu_chain",
            ),
            1,
        )
    )
    return rows


#: processor counts of the split timings
SPLIT_PS = (2, 4, 8, 16)


def bench_dispatch(sizes, repeats, seed, smoke):
    """Dispatched versus Python ``optimal_postorder`` and split."""
    from repro.core.engine import resolve_backend
    from repro.parallel.split_subtrees import SplitPlan
    from repro.sequential.postorder import _python_postorder
    from repro.workloads.dataset import build_dataset

    cases = [(str(n), [random_weighted_tree(int(n), np.random.default_rng(seed))]) for n in sizes]
    scale = "tiny" if smoke else "small"
    dataset = [inst.tree for inst in build_dataset(scale)]
    cases.append((f"{scale} x{len(dataset)}", dataset))
    backend = resolve_backend()

    def liu(trees, python):
        if python:
            return [_python_postorder(t, False) for t in trees]
        return [(None, optimal_postorder(t)) for t in trees]

    def same_liu(ref, got):
        return all(
            np.array_equal(r[1], g[1].order) and r[0][t.root] == g[1].peak_memory
            for r, g, t in zip(ref, got, trees)
        )

    def split(trees, works, python):
        out = []
        for t, work in zip(trees, works):
            plan = SplitPlan(t, work)
            run = plan._split_reference if python else plan.split
            out.append([run(p) for p in SPLIT_PS])
        return out

    rows = []
    for label, trees in cases:
        works = [t.subtree_work() for t in trees]
        for kernel, fn, same in (
            ("optimal_postorder", lambda py: liu(trees, py), same_liu),
            ("split", lambda py: split(trees, works, py), lambda a, b: a == b),
        ):
            t_py, ref = best_of(lambda: fn(True), repeats)
            t_got, got = best_of(lambda: fn(False), repeats)
            _check(same(ref, got), f"{kernel} {label}")
            row = {
                "kernel": kernel,
                "case": label,
                "n": int(sum(t.n for t in trees)),
                "backend": backend,
                "python_s": round(t_py, 6),
                "dispatched_s": round(t_got, 6),
                "speedup": round(t_py / t_got, 3) if t_got > 0 else float("inf"),
            }
            print(
                f"{kernel:>18s} {label:>10s}  python {row['python_s']:9.4f}s  "
                f"{backend} {row['dispatched_s']:9.4f}s  speedup {row['speedup']:7.2f}x"
            )
            rows.append(row)
    return rows


def _check(ok, what):
    if not ok:
        raise AssertionError(f"{what}: legacy and vectorized paths diverged")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10**3, 10**4, 10**5])
    parser.add_argument(
        "--liu-sizes",
        type=int,
        nargs="+",
        default=None,
        help="sizes on which to also time Liu's exact traversal "
        "(default: every size up to 10^4; the legacy baseline is "
        "quadratic-ish and dominates the benchmark wall clock above that)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--output", default="BENCH_sequential.json")
    parser.add_argument(
        "--dispatch",
        action="store_true",
        help="time the dispatched optimal_postorder and split against "
        "their Python paths instead of the seed comparison",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append to the output file instead of overwriting it",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes and one repeat: exercises every timed pair end "
        "to end (CI guard against bit-rot), not a measurement",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.sizes = [300, 1500]
        args.repeats = 1
    liu_sizes = (
        args.liu_sizes
        if args.liu_sizes is not None
        else [n for n in args.sizes if n <= 10**4]
    )
    payload = {
        "benchmark": "sequential",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "seed": args.seed,
        "smoke": bool(args.smoke),
    }
    entries = []
    if args.dispatch or args.smoke:
        rows = bench_dispatch(args.sizes, args.repeats, args.seed, args.smoke)
        entries.append({**payload, "kernels": ["optimal_postorder", "split"], "dispatch": rows})
    if not args.dispatch:
        rows = run_bench(args.sizes, liu_sizes, args.repeats, args.seed)
        kernels = ["construction", "optimal_postorder", "liu", "liu_chain"]
        entries.append({**payload, "kernels": kernels, "results": rows})
    for k, entry in enumerate(entries):
        write_payload(args.output, entry, args.append or k > 0)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
