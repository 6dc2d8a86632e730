"""Record benchmark: JSONL checkpoint write/load and vectorised analysis.

Synthesizes a campaign-shaped record stream (a (trees x heuristics x p)
grid with ~1% quarantined ``FailedRecord`` rows) at 1e5..1e6 records
and times:

* **write** -- persisting the stream as a JSONL checkpoint
  (``JsonlStore.append``: flush per record, one fsync);
* **load** -- materialising :class:`~repro.analysis.store.RecordColumns`
  from the file (``JsonlStore.columns``);
* **analyze** -- the end-to-end consumer path: load the file, then run
  the vectorised groupby (:func:`~repro.analysis.metrics.group_stats`)
  and Table 1 (:func:`~repro.analysis.metrics.compute_table1_stats`).
  ``legacy_table1`` is the historical path (``JsonlStore.iter_records``
  into dataclass objects + the per-record reference loop), timed up to
  ``legacy_max`` records as the baseline.

The vectorised Table 1 is asserted equal to the reference loop before
any timing is reported -- the speedup is never allowed to change a
single statistic.

``--smoke`` runs one tiny size (CI bit-rot guard).
Appends to the shared perf trajectory by default::

    PYTHONPATH=src python benchmarks/bench_records.py --append
    PYTHONPATH=src python benchmarks/bench_records.py \
        --sizes 100000 1000000 --append
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_engine import write_payload  # noqa: E402

from repro.analysis.metrics import (  # noqa: E402
    compute_table1_stats,
    compute_table1_stats_reference,
    group_stats,
)
from repro.analysis.store import (  # noqa: E402
    FailedRecord,
    JsonlStore,
    ScenarioRecord,
    open_store,
)

_HEURISTICS = (
    "ParSubtrees",
    "ParSubtreesOptim",
    "ParInnerFirst",
    "ParDeepestFirst",
    "MemoryBounded@cap1.5",
    "MemoryBounded@cap2",
)
_PROCS = (2, 4, 8, 16, 32)


def synth_records(
    n_records: int, seed: int, failed_rate: float = 0.01
) -> list[ScenarioRecord | FailedRecord]:
    """A deterministic campaign-shaped stream of ~``n_records`` rows.

    Rounded to whole (tree x heuristic x p) grids, and quarantines hit
    whole (tree, p) scenarios, so Table 1 (which requires complete
    scenarios) runs on the measured remainder exactly like it does on a
    real supervised campaign with ``--retry-failed`` pending.
    """
    rng = np.random.default_rng(seed)
    per_tree = len(_HEURISTICS) * len(_PROCS)
    n_trees = max(1, (n_records + per_tree - 1) // per_tree)
    n_records = n_trees * per_tree
    tree_id = np.repeat(np.arange(n_trees), per_tree)
    slot = np.tile(np.arange(per_tree), n_trees)
    heur = np.asarray(_HEURISTICS)[slot // len(_PROCS)]
    p = np.asarray(_PROCS, np.int64)[slot % len(_PROCS)]
    n_nodes = 500 + 100 * (tree_id % 37)
    mk_lb = rng.uniform(10.0, 100.0, n_records)
    mem_lb = rng.uniform(10.0, 100.0, n_records)
    scen = tree_id * len(_PROCS) + slot % len(_PROCS)
    failed = (rng.random(n_trees * len(_PROCS)) < failed_rate)[scen]
    makespan = mk_lb * rng.uniform(1.0, 3.0, n_records)
    memory = mem_lb * rng.uniform(1.0, 5.0, n_records)
    return [
        FailedRecord(f"tree-{t}", n, p_, h, "worker crash: exit code 39", 3)
        if bad
        else ScenarioRecord(f"tree-{t}", n, p_, h, mk, mem, m_lb, k_lb)
        for t, n, p_, h, bad, mk, mem, m_lb, k_lb in zip(
            tree_id.tolist(), n_nodes.tolist(), p.tolist(), heur.tolist(),
            failed.tolist(), makespan.tolist(), memory.tolist(),
            mem_lb.tolist(), mk_lb.tolist(),
        )
    ]


def timeit(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _load_groupby(path: str):
    return group_stats(open_store(path).columns(include_failed=False))


def _load_table1(path: str):
    return compute_table1_stats(open_store(path).columns(include_failed=False))


def run_records_bench(
    sizes, repeats: int, seed: int, legacy_max: int = 200_000
) -> list[dict]:
    rows = []
    for n in sizes:
        records = synth_records(int(n), seed)  # untimed setup
        n = len(records)
        with tempfile.TemporaryDirectory(prefix="bench-records-") as work:
            jsonl = os.path.join(work, "records.jsonl")
            store = JsonlStore(jsonl)

            def write_jsonl():
                store.reset()
                store.append(records)

            t_w, _ = timeit(write_jsonl, repeats)
            t_l, _ = timeit(
                lambda: open_store(jsonl).columns(include_failed=True), repeats
            )
            t_g, _ = timeit(lambda: _load_groupby(jsonl), repeats)
            t_t, table1 = timeit(lambda: _load_table1(jsonl), repeats)
            row = {
                "records": n,
                "jsonl_write_s": round(t_w, 4),
                "jsonl_load_s": round(t_l, 4),
                "load_groupby_s": round(t_g, 4),
                "load_table1_s": round(t_t, 4),
            }
            if n <= legacy_max:
                # the historical object path, as the baseline
                def legacy():
                    return compute_table1_stats_reference(
                        list(open_store(jsonl).iter_records())
                    )

                t_legacy, ref_stats = timeit(legacy, repeats)
                assert table1 == ref_stats, "vectorised Table 1 diverged"
                row["legacy_table1_s"] = round(t_legacy, 4)
                row["legacy_table1_speedup"] = round(t_legacy / t_t, 2)
            print(
                f"n={n:>8d}  write {t_w:7.3f}s  load {t_l:7.3f}s  "
                f"load+groupby {t_g:7.3f}s  load+table1 {t_t:7.3f}s"
                + (
                    f"  legacy table1 {row['legacy_table1_s']:7.3f}s"
                    if "legacy_table1_s" in row
                    else ""
                )
            )
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[10**5, 10**6]
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--append",
        action="store_true",
        help="append to the output file instead of overwriting it",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one tiny size (CI bit-rot guard)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.sizes = [5000]
        args.repeats = 1
    payload = {
        "benchmark": "records",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "records": run_records_bench(args.sizes, args.repeats, args.seed),
    }
    write_payload(args.output, payload, args.append)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
