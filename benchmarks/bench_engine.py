"""Scaling benchmark: event-sweep implementations against each other.

Three modes, timing schedulers on random trees:

* **default (legacy comparison)** -- the seed implementation (embedded
  verbatim below: a heapq event loop driven by a per-node Python
  priority closure) against the unified engine, isolating what the
  vectorized priorities changed;
* **``--compare-backends``** -- the engine's two sweeps against each
  other: ``SchedulerEngine.run_reference`` (the pure-Python reference
  loop) vs. ``SchedulerEngine.run`` (the C kernel, when it builds),
  with the priority rank precomputed outside the timed region so the
  measurement isolates the *event sweep* itself. Both must produce the
  identical schedule (asserted);
* **``--grid``** -- an (8-algorithm x 4-p) campaign grid over one tree,
  unprepared (every scenario re-derives the tree state, the historical
  behaviour) vs. prepared (one
  :class:`~repro.core.prepared.PreparedTree` shared by all scenarios).
  Both paths must produce identical schedules (asserted); the ratio is
  the amortization win of the prepared-tree refactor.
* **``--megabatch``** -- the same grid, per-scenario prepared calls vs.
  one :func:`~repro.core.engine.sweep_batch` megabatch kernel call.
  Schedules must match the per-scenario path bit for bit (asserted);
  the ratio is the win of dropping per-scenario Python/ctypes dispatch
  and sweeping the grid GIL-free in one serial call.

* **``--profile``** -- the exact memory profile of a schedule
  (``simulate``'s and ``peak_memory``'s cost): the numpy reference
  ``simulator._memory_profile_reference`` vs. the dispatched
  ``memory_profile`` (the C library's export, when it builds), on
  ParDeepestFirst schedules at n = 10^3, 10^5, 10^6 and on the 64
  trees of the paper data set (``build_dataset("small")``). Profiles
  must match byte for byte (asserted).

``--smoke`` runs all modes at a small size (CI guard against bit-rot);
``--append`` appends the payload to an existing trajectory file instead
of overwriting it (the file then holds a JSON array of entries).

Writes ``BENCH_engine.json`` (repo root by default) so future PRs have a
perf trajectory::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --compare-backends \
        --sizes 100000 1000000 --append
    PYTHONPATH=src python benchmarks/bench_engine.py --grid \
        --sizes 100000 --append
    PYTHONPATH=src python benchmarks/bench_engine.py --profile --append
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import time

import numpy as np

from repro import registry
from repro.core.engine import SchedulerEngine, resolve_backend, sweep_batch
from repro.core.prepared import PreparedTree
from repro.core.schedule import Schedule
from repro.core.simulator import _memory_profile_reference, memory_profile
from repro.core.tree import NO_PARENT
from repro.parallel.par_deepest_first import par_deepest_first_rank
from repro.sequential.postorder import optimal_postorder
from repro.workloads.dataset import build_dataset
from repro.workloads.synthetic import random_weighted_tree


# ----------------------------------------------------------------------
# the seed closure-based path, embedded verbatim for a stable baseline
# (including the seed's tree sweeps: the per-call DFS postorder and the
# numpy-scalar-indexing depth accumulation that the refactor vectorized)
# ----------------------------------------------------------------------
def legacy_postorder(tree):
    n = tree.n
    order = np.empty(n, dtype=np.int64)
    idx = 0
    stack = [(tree.root, 0)]
    visited = np.zeros(n, dtype=bool)
    while stack:
        node, cursor = stack.pop()
        if visited[node]:
            raise ValueError("parent structure contains a cycle")
        kids = tree.children(node)
        if cursor < len(kids):
            stack.append((node, cursor + 1))
            stack.append((kids[cursor], 0))
        else:
            visited[node] = True
            order[idx] = node
            idx += 1
    return order[:idx]


def legacy_weighted_depths(tree):
    n = tree.n
    depth = np.zeros(n, dtype=np.float64)
    for node in reversed(legacy_postorder(tree)):
        p = tree.parent[node]
        depth[node] = tree.w[node] + (depth[p] if p != NO_PARENT else 0.0)
    return depth


def legacy_list_schedule(tree, p, priority):
    n = tree.n
    start = np.full(n, -1.0, dtype=np.float64)
    proc = np.full(n, -1, dtype=np.int64)
    pending_children = np.array([tree.degree(i) for i in range(n)], dtype=np.int64)

    ready = []
    for i in range(n):
        if pending_children[i] == 0:
            heapq.heappush(ready, (priority(i), i))

    free_procs = list(range(p - 1, -1, -1))
    events = []
    now = 0.0
    scheduled = 0
    while scheduled < n or events:
        while free_procs and ready:
            _, node = heapq.heappop(ready)
            q = free_procs.pop()
            start[node] = now
            proc[node] = q
            heapq.heappush(events, (now + float(tree.w[node]), node))
            scheduled += 1
        if not events:
            break
        now, node = heapq.heappop(events)
        finished = [node]
        while events and events[0][0] == now:
            finished.append(heapq.heappop(events)[1])
        for node in finished:
            free_procs.append(int(proc[node]))
            parent = int(tree.parent[node])
            if parent != NO_PARENT:
                pending_children[parent] -= 1
                if pending_children[parent] == 0:
                    heapq.heappush(ready, (priority(parent), parent))
    return Schedule(tree, start, proc, p)


def legacy_par_deepest_first(tree, p, order):
    ranks = np.empty(tree.n, dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(tree.n)
    wdepth = legacy_weighted_depths(tree)

    def priority(i):
        return (-float(wdepth[i]), 1 if tree.is_leaf(i) else 0, int(ranks[i]))

    return legacy_list_schedule(tree, p, priority)


# ----------------------------------------------------------------------
# sweep comparison: the reference loop vs. the dispatched (C) sweep
# ----------------------------------------------------------------------
def run_backend_bench(sizes, p: int, repeats: int, seed: int) -> list[dict]:
    """Time ``SchedulerEngine.run_reference`` against ``run`` on
    identical instances.

    The priority rank and the engine are built outside the timed region,
    so the numbers isolate the sweep (plus each path's per-run array
    preparation). One untimed warm-up run of each produces the schedules
    and absorbs one-time costs (the C kernel build); they must match bit
    for bit. ``run`` is timed under the name of the sweep it dispatches
    to: ``c``, or nothing extra where the kernel does not build (``run``
    is then the reference loop itself).
    """
    dispatched = resolve_backend()
    backends = ["python"] + (["c"] if dispatched == "c" else [])
    rows = []
    for n in sizes:
        tree = random_weighted_tree(int(n), np.random.default_rng(seed))
        # shared preprocessing (optimal postorder and rank), untimed
        rank = par_deepest_first_rank(tree)
        engine = SchedulerEngine(tree, p, rank)
        ref = engine.run_reference()
        got = engine.run()  # warm-up (compile)
        assert engine.backend_used == dispatched, (
            f"{dispatched} fell back to {engine.backend_used}"
        )
        assert np.array_equal(got.start, ref.start), "sweeps diverged"
        assert np.array_equal(got.proc, ref.proc), "sweeps diverged"
        seconds = {"python": round(best_of(engine.run_reference, repeats)[0], 6)}
        if dispatched == "c":
            seconds["c"] = round(best_of(engine.run, repeats)[0], 6)
        row = {
            "n": int(n),
            "p": p,
            "seconds": seconds,
            "speedup_vs_python": {
                b: round(seconds["python"] / seconds[b], 3)
                for b in backends
                if b != "python" and seconds[b] > 0
            },
        }
        parts = "  ".join(f"{b} {seconds[b]:8.4f}s" for b in backends)
        gains = "  ".join(
            f"{b} {v:5.2f}x" for b, v in row["speedup_vs_python"].items()
        )
        print(f"n={row['n']:>8d} p={p}  {parts}  speedup: {gains}")
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# campaign-grid comparison: unprepared vs. PreparedTree-amortized sweeps
# ----------------------------------------------------------------------

#: the (8-algorithm) axis of the grid: every engine-based list scheduler
#: plus a strict memory-cap sweep (strict mode is feasible at any factor
#: >= 1, so the grid never raises)
GRID_ALGOS: list[tuple[str, dict]] = [
    ("ParInnerFirst", {}),
    ("ParDeepestFirst", {}),
    ("ParInnerFirst/naiveO", {}),
    ("ParDeepestFirst/hops", {}),
    ("MemoryBounded", {"cap_factor": 1.25}),
    ("MemoryBounded", {"cap_factor": 1.5}),
    ("MemoryBounded", {"cap_factor": 2.0}),
    ("MemoryBounded", {"cap_factor": 3.0}),
]

#: the (4-p) axis of the grid
GRID_PROCS = (2, 4, 8, 16)


def run_grid_bench(sizes, repeats: int, seed: int) -> list[dict]:
    """Time a full (algorithm x p) grid, unprepared vs. prepared.

    The unprepared path calls ``registry.run(name, tree, p)`` per
    scenario -- every call re-derives the optimal postorder, the rank
    permutation and the engine's typed columns. The prepared path builds one
    :class:`PreparedTree` (timed, inside the loop) and runs the same
    scenarios against it. Schedules must match bit for bit.
    """
    rows = []
    for n in sizes:
        tree = random_weighted_tree(int(n), np.random.default_rng(seed))

        def run_grid(target):
            return [
                registry.run(name, target, p, **params)
                for p in GRID_PROCS
                for name, params in GRID_ALGOS
            ]

        ref = run_grid(tree)  # warm-up (compile) + reference schedules
        t_unprep, _ = best_of(lambda: run_grid(tree), repeats)
        t_prep, got = best_of(lambda: run_grid(PreparedTree(tree)), repeats)
        for a, b in zip(ref, got):
            assert np.array_equal(a.start, b.start), "prepared path diverged"
            assert np.array_equal(a.proc, b.proc), "prepared path diverged"
        row = {
            "n": int(n),
            "grid": f"{len(GRID_ALGOS)} algorithms x {len(GRID_PROCS)} p",
            "scenarios": len(GRID_ALGOS) * len(GRID_PROCS),
            "unprepared_s": round(t_unprep, 6),
            "prepared_s": round(t_prep, 6),
            "speedup": round(t_unprep / t_prep, 3),
        }
        print(
            f"n={row['n']:>8d} grid {row['grid']}  unprepared {t_unprep:8.4f}s  "
            f"prepared {t_prep:8.4f}s  speedup {row['speedup']:5.2f}x"
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# megabatch comparison: per-scenario prepared calls vs. one kernel call
# ----------------------------------------------------------------------
def run_megabatch_bench(sizes, repeats: int, seed: int) -> list[dict]:
    """Time the (algorithm x p) grid per-scenario vs. one megabatch.

    Both paths share one pre-built :class:`PreparedTree` (its
    construction is the grid-bench story, not this one): the
    per-scenario path calls ``registry.run`` once per grid cell, the
    megabatch path stacks every cell's :class:`BatchScenario` and makes
    a single :func:`sweep_batch` call -- one kernel invocation for the
    whole grid. Schedules must match bit for bit (asserted).
    """
    rows = []
    for n in sizes:
        tree = random_weighted_tree(int(n), np.random.default_rng(seed))
        prepared = PreparedTree(tree)
        specs = [
            registry.get(name).batch_spec(prepared, p, **params)
            for p in GRID_PROCS
            for name, params in GRID_ALGOS
        ]

        def run_single():
            return [
                registry.run(name, prepared, p, **params)
                for p in GRID_PROCS
                for name, params in GRID_ALGOS
            ]

        def run_batch():
            return sweep_batch(prepared, specs).schedules()

        ref = run_single()  # warm-up (compile) + reference schedules
        run_batch()  # warm-up the batch entry point too
        t_single, _ = best_of(run_single, repeats)
        t_batch, got = best_of(run_batch, repeats)
        for a, b in zip(ref, got):
            assert np.array_equal(a.start, b.start), "megabatch diverged"
            assert np.array_equal(a.proc, b.proc), "megabatch diverged"
        row = {
            "n": int(n),
            "grid": f"{len(GRID_ALGOS)} algorithms x {len(GRID_PROCS)} p",
            "scenarios": len(GRID_ALGOS) * len(GRID_PROCS),
            "threads": 1,
            "per_scenario_s": round(t_single, 6),
            "megabatch_s": round(t_batch, 6),
            "speedup": round(t_single / t_batch, 3),
        }
        print(
            f"n={row['n']:>8d} grid {row['grid']}  "
            f"per-scenario {t_single:8.4f}s  megabatch {t_batch:8.4f}s  "
            f"speedup {row['speedup']:5.2f}x"
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# memory profile: the numpy reference vs. the dispatched (C) profile
# ----------------------------------------------------------------------

#: tree sizes of ``--profile`` when ``--sizes`` is not given
PROFILE_SIZES = (10**3, 10**5, 10**6)


def run_profile_bench(sizes, p: int, repeats: int, seed: int) -> list[dict]:
    """Time ``_memory_profile_reference`` against ``memory_profile``.

    One row per tree size (a ParDeepestFirst schedule on ``p``
    processors, per-call seconds) and one for the 64 trees of the paper
    data set (seconds for all 64 profiles). The schedules are built
    outside the timed region; every profile must hold the reference's
    bytes. ``dispatched`` names the path ``memory_profile`` took.
    """
    dispatched = resolve_backend()
    cases = [
        (str(int(n)), [registry.run(
            "ParDeepestFirst", random_weighted_tree(int(n), np.random.default_rng(seed)), p
        )])
        for n in sizes
    ]
    small = [registry.run("ParDeepestFirst", inst.tree, p) for inst in build_dataset("small")]
    cases.append((f"small x{len(small)}", small))
    rows = []
    for label, schedules in cases:
        for s in schedules:
            got, want = memory_profile(s), _memory_profile_reference(s)
            assert all(
                a.tobytes() == b.tobytes() for a, b in zip(got, want)
            ), "memory profiles diverged"
        t_ref, _ = best_of(lambda: [_memory_profile_reference(s) for s in schedules], repeats)
        t_got, _ = best_of(lambda: [memory_profile(s) for s in schedules], repeats)
        row = {
            "trees": label,
            "n": int(sum(s.tree.n for s in schedules)),
            "p": p,
            "dispatched": dispatched,
            "reference_s": round(t_ref, 6),
            "dispatched_s": round(t_got, 6),
            "speedup": round(t_ref / t_got, 3),
        }
        print(
            f"profile {label:>10s} p={p}  reference {t_ref:8.4f}s  "
            f"{dispatched} {t_got:8.4f}s  speedup {row['speedup']:5.2f}x"
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
def best_of(fn, repeats: int) -> tuple[float, Schedule]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def with_optimal(tree) -> PreparedTree:
    """A fresh :class:`PreparedTree` of ``tree`` whose optimal postorder
    is already computed (and nothing else)."""
    prepared = PreparedTree(tree)
    prepared.optimal()
    return prepared


def run_bench(sizes, p: int, repeats: int, seed: int) -> list[dict]:
    rows = []
    for n in sizes:
        tree = random_weighted_tree(int(n), np.random.default_rng(seed))
        order = optimal_postorder(tree).order  # shared preprocessing, untimed
        t_legacy, ref = best_of(lambda: legacy_par_deepest_first(tree, p, order), repeats)
        # one fresh bundle per repeat with its optimal postorder computed
        # untimed, so the timed call builds the rank and sweeps
        bundles = iter([with_optimal(tree) for _ in range(repeats)])
        t_vec, got = best_of(
            lambda: registry.run("ParDeepestFirst", next(bundles), p), repeats
        )
        assert np.array_equal(got.start, ref.start), "paths diverged"
        assert np.array_equal(got.proc, ref.proc), "paths diverged"
        row = {
            "n": int(n),
            "p": p,
            "legacy_s": round(t_legacy, 6),
            "vectorized_s": round(t_vec, 6),
            "speedup": round(t_legacy / t_vec, 3),
        }
        print(
            f"n={row['n']:>7d} p={p}  legacy {row['legacy_s']:8.4f}s  "
            f"vectorized {row['vectorized_s']:8.4f}s  speedup {row['speedup']:5.2f}x"
        )
        rows.append(row)
    return rows


def write_payload(path: str, payload: dict, append: bool) -> None:
    """Write (or append to) the benchmark trajectory file.

    With ``append=True`` an existing file becomes a JSON array of
    entries (a pre-existing single-object file is wrapped first), so
    every perf PR keeps adding comparable numbers to the same file.
    """
    if append and os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
        entries = existing if isinstance(existing, list) else [existing]
        entries.append(payload)
    else:
        entries = payload
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="tree sizes (default 10^3 10^4 10^5; 10^3 10^5 10^6 for "
        "--profile)",
    )
    parser.add_argument("--processors", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--compare-backends",
        action="store_true",
        help="compare the engine's reference loop with its dispatched "
        "(C) sweep instead of the legacy-vs-vectorized comparison",
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help="compare an (algorithm x p) campaign grid unprepared vs. "
        "amortized through one PreparedTree",
    )
    parser.add_argument(
        "--megabatch",
        action="store_true",
        help="compare the campaign grid per-scenario vs. one batched "
        "sweep_batch kernel call",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="compare the numpy memory profile with the dispatched (C) "
        "one instead of the legacy-vs-vectorized comparison",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append to the output file instead of overwriting it",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instance, one repeat, all modes (CI bit-rot guard)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.sizes = [2000]
        args.repeats = 1
    elif args.sizes is None:
        args.sizes = list(PROFILE_SIZES) if args.profile else [10**3, 10**4, 10**5]
    grid_mode = (args.grid or args.megabatch) and not args.compare_backends
    modes = (args.compare_backends, args.grid, args.megabatch, args.profile)
    payload = {
        "benchmark": "engine",
        "algorithm": "grid" if grid_mode else "ParDeepestFirst",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "seed": args.seed,
        "smoke": bool(args.smoke),
    }
    if args.smoke or not any(modes):
        payload["results"] = run_bench(
            args.sizes, args.processors, args.repeats, args.seed
        )
    if args.smoke or args.compare_backends:
        payload["backends"] = run_backend_bench(
            args.sizes, args.processors, args.repeats, args.seed
        )
    if args.smoke or args.grid:
        payload["grid"] = run_grid_bench(args.sizes, args.repeats, args.seed)
    if args.smoke or args.megabatch:
        payload["megabatch"] = run_megabatch_bench(args.sizes, args.repeats, args.seed)
    if args.smoke or args.profile:
        payload["profile"] = run_profile_bench(
            args.sizes, args.processors, args.repeats, args.seed
        )
    write_payload(args.output, payload, args.append)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
