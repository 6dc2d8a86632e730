"""Command-line interface for regenerating the paper's tables and figures.

Examples
--------
::

   python -m repro.cli dataset --scale tiny
   python -m repro.cli algos
   python -m repro.cli run --algo ParDeepestFirst --scale small
   python -m repro.cli table1 --scale small --workers 4
   python -m repro.cli figure --which 6 --scale small
   python -m repro.cli theory
   python -m repro.cli memory-cap --scale tiny
   python -m repro.cli campaign --algos ParDeepestFirst,MemoryBounded \
       --procs 2,4,8 --caps 1.5,2.0 --resume out.jsonl --workers 4
   python -m repro.cli campaign --scale small --store columnar --resume out.store
   python -m repro.cli pack out.store out.jsonl
   python -m repro.cli merge all.store shard0.store shard1.store
   python -m repro.cli table1 --records out.store
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


class _Interrupted(Exception):
    """Raised by the campaign signal handlers (SIGINT/SIGTERM) so the
    run can shut its workers down cleanly and exit ``128 + signum``
    with a resume hint."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)
    print(f"{'tree':<28s} {'nodes':>7s} {'height':>7s} {'leaves':>7s} {'maxdeg':>7s}")
    for inst in instances:
        t = inst.tree
        print(
            f"{inst.name:<28s} {t.n:>7d} {t.height():>7d} "
            f"{t.n_leaves():>7d} {t.max_degree():>7d}"
        )
    print(f"total: {len(instances)} trees")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import (
        compute_table1_stats,
        render_table1,
        run_experiments,
        save_records,
        table1_csv,
    )
    from repro.workloads import build_dataset

    if args.records:
        from repro.analysis import open_store

        records = open_store(args.records).columns(include_failed=False)
        print(
            f"loaded {len(records)} records from {args.records}", file=sys.stderr
        )
    else:
        instances = build_dataset(scale=args.scale)
        processor_counts = tuple(args.processors)
        print(
            f"running {len(instances)} trees x p in {processor_counts} "
            f"x 4 heuristics ...",
            file=sys.stderr,
        )
        records = run_experiments(
            instances,
            processor_counts,
            progress=args.verbose,
            workers=args.workers,
            backend=args.backend,
        )
    stats = compute_table1_stats(records)
    print(render_table1(stats))
    if args.output:
        if args.output.endswith(".json"):
            if not isinstance(records, list):
                records = records.to_records()
            save_records(records, args.output)
        else:
            with open(args.output, "w") as fh:
                fh.write(table1_csv(stats) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis import figure_csv, figure_data, render_figure, run_experiments
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)
    records = run_experiments(
        instances,
        tuple(args.processors),
        workers=args.workers,
        backend=args.backend,
    )
    data = figure_data(records, args.which)
    titles = {
        6: "Figure 6: comparison to lower bounds",
        7: "Figure 7: comparison to ParSubtrees",
        8: "Figure 8: comparison to ParInnerFirst",
    }
    print(render_figure(data, title=titles[args.which]))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(figure_csv(data) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import simulate
    from repro.parallel import par_deepest_first, par_inner_first, par_subtrees
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

    print("== Theorem 1 / Figure 1: NP-completeness gadget ==")
    inst = random_yes_instance(2, 12, np.random.default_rng(0))
    g = build_gadget(inst)
    sch = decide_gadget(g)
    sim = simulate(sch)
    print(
        f"YES instance: makespan {sim.makespan:g} (bound {g.makespan_bound:g}), "
        f"peak {sim.peak_memory:g} (bound {g.memory_bound:g})"
    )
    print("== Theorem 2 / Figure 2: inapproximability ==")
    for n in (2, 3, 4):
        f2 = inapproximability_tree(n, n * n)
        liu = liu_optimal_traversal(f2.tree)
        lb = inapprox_ratio_lower_bound(n, n * n, alpha=2.0)
        print(
            f"n={n} delta={n * n}: M_opt={liu.peak_memory:g} "
            f"(paper {f2.optimal_peak_memory:g}), CP={f2.tree.critical_path():g} "
            f"(paper {f2.optimal_makespan:g}), memory-ratio LB(alpha=2)={lb:.2f}"
        )
    print("== Figure 3: ParSubtrees makespan worst case ==")
    for k in (4, 16, 64):
        p = 4
        t = fork_tree(p, k)
        sim = simulate(par_subtrees(t, p))
        print(
            f"p={p} k={k}: ParSubtrees {sim.makespan:g} "
            f"(paper p(k-1)+2 = {p * (k - 1) + 2}), optimal {k + 1}, "
            f"ratio {sim.makespan / (k + 1):.2f} -> p"
        )
    print("== Figure 4: ParInnerFirst memory blow-up ==")
    for k in (4, 8, 16):
        p = 4
        t = inner_first_memory_tree(p, k)
        seq = optimal_postorder(t).peak_memory
        sim = simulate(par_inner_first(t, p))
        print(
            f"p={p} k={k}: M_seq={seq:g} (paper p+1={p + 1}), "
            f"ParInnerFirst {sim.peak_memory:g} "
            f"(paper (k-1)(p-1)+1 = {(k - 1) * (p - 1) + 1})"
        )
    print("== Figure 5: ParDeepestFirst memory blow-up ==")
    for c in (4, 8, 16):
        t = deepest_first_memory_tree(c, 6)
        seq = optimal_postorder(t).peak_memory
        sim = simulate(par_deepest_first(t, c))
        print(
            f"chains={c}: M_seq={seq:g} (paper 3), "
            f"ParDeepestFirst {sim.peak_memory:g} ~ chains"
        )
    return 0


def _cmd_shapes(args: argparse.Namespace) -> int:
    from repro.analysis import render_shape_table, summarize_shapes
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)
    print(f"data set: {len(instances)} assembly trees (scale {args.scale})")
    print(render_shape_table(summarize_shapes(instances)))
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.analysis import ParetoPoint, hypervolume, pareto_front
    from repro.core import memory_lower_bound, simulate
    from repro.parallel import HEURISTICS, memory_bounded_schedule
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)[: args.limit]
    p = args.processors[0]
    for inst in instances:
        tree = inst.tree
        mseq = memory_lower_bound(tree)
        points = []
        for name, fn in HEURISTICS.items():
            r = simulate(fn(tree, p))
            points.append(ParetoPoint(r.makespan, r.peak_memory, name))
        for factor in (1.0, 1.5, 2.0, 3.0):
            sch = memory_bounded_schedule(tree, p, factor * mseq)
            r = simulate(sch)
            points.append(ParetoPoint(r.makespan, r.peak_memory, f"cap x{factor:g}"))
        front = pareto_front(points)
        ref = ParetoPoint(
            max(q.makespan for q in points) * 1.05,
            max(q.memory for q in points) * 1.05,
        )
        print(f"\n{inst.name} (p={p}): front of {len(points)} schedules, "
              f"hypervolume {hypervolume(points, ref):.4g}")
        for q in front:
            print(f"  makespan {q.makespan:>12.5g}  memory {q.memory:>12.5g}  {q.label}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import run_experiments
    from repro.analysis.report import build_report
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)
    if args.records:
        from repro.analysis import open_store

        # columns straight from the store: every section (table 1,
        # groupby, figures) runs on the vectorised paths
        records = open_store(args.records).columns(include_failed=False)
    else:
        records = run_experiments(
            instances,
            tuple(args.processors),
            workers=args.workers,
            backend=args.backend,
        )
    text = build_report(records, instances)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_memory_cap(args: argparse.Namespace) -> int:
    from repro.core import memory_lower_bound, simulate
    from repro.parallel import memory_bounded_schedule
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)[: args.limit]
    p = args.processors[0]
    print(f"{'tree':<28s} {'cap/Mseq':>9s} {'makespan':>12s} {'peak/Mseq':>10s}")
    for inst in instances:
        mseq = memory_lower_bound(inst.tree)
        for factor in (1.0, 1.5, 2.0, 4.0):
            sch = memory_bounded_schedule(
                inst.tree, p, cap=factor * mseq, backend=args.backend
            )
            sim = simulate(sch)
            print(
                f"{inst.name:<28s} {factor:>9.1f} {sim.makespan:>12.5g} "
                f"{sim.peak_memory / mseq:>10.3f}"
            )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import signal

    from repro import registry
    from repro.analysis.campaign import Campaign, run_campaign
    from repro.workloads import build_dataset

    if args.algos.strip().lower() == "all":
        algos = tuple(registry.names("parallel"))
    else:
        algos = tuple(a for a in args.algos.replace(",", " ").split() if a)
    procs = tuple(int(x) for x in args.procs.replace(",", " ").split())
    caps = tuple(float(x) for x in args.caps.replace(",", " ").split()) if args.caps else ()
    try:
        campaign = Campaign(
            algorithms=algos,
            processor_counts=procs,
            cap_factors=caps,
            backend=args.backend,
            validate=args.verbose,
        )
        # fail fast on unknown algorithm names, before building the data set
        campaign.scenarios_for("-")
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        from repro.testing.faults import FaultPlan

        text = args.fault_plan
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        try:
            fault_plan = FaultPlan.from_json(text)
        except ValueError as exc:
            print(f"--fault-plan: {exc}", file=sys.stderr)
            return 2
    supervise = bool(
        args.supervise
        or args.workers > 1
        or args.timeout is not None
        or fault_plan is not None
        or args.retry_failed
        or args.report
    )
    instances = build_dataset(scale=args.scale)
    if args.limit:
        instances = instances[: args.limit]
    per_tree = len(campaign.scenarios_for("-"))
    dir_store = args.store == "columnar"
    checkpoint = args.resume or (
        args.output
        if args.output and (args.output.endswith(".jsonl") or dir_store)
        else None
    )
    print(
        f"campaign: {len(instances)} trees x {per_tree} scenarios/tree = "
        f"{len(instances) * per_tree} records"
        + (f" -> {checkpoint}" + (" (resumable)" if args.resume else "") if checkpoint else "")
        + (" [supervised]" if supervise else ""),
        file=sys.stderr,
    )

    # Flush-and-exit on SIGINT/SIGTERM: the checkpoint is already
    # flushed per record, so the handlers only need to unwind the run
    # (terminating pool/supervised workers on the way) and say how to
    # resume. Exit code is the conventional 128 + signum.
    def _on_signal(signum, frame):
        raise _Interrupted(signum)

    previous = {
        s: signal.signal(s, _on_signal) for s in (signal.SIGINT, signal.SIGTERM)
    }
    reports: list = []
    try:
        records = run_campaign(
            instances,
            campaign,
            workers=args.workers,
            checkpoint=checkpoint,
            resume=bool(args.resume),
            store=args.store,
            progress=args.verbose,
            supervise=supervise,
            retries=args.retries,
            timeout=args.timeout,
            fault_plan=fault_plan,
            retry_failed=args.retry_failed,
            report=reports,
        )
    except _Interrupted as exc:
        name = signal.Signals(exc.signum).name
        hint = (
            f"; resume with --resume {checkpoint}"
            if checkpoint
            else " (no checkpoint; records are lost -- pass --resume PATH next time)"
        )
        print(f"interrupted by {name}: checkpoint flushed{hint}", file=sys.stderr)
        return 128 + exc.signum
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    # columnar summary: one bincount per statistic instead of a
    # per-record python loop (matters at megabatch/million-record scale)
    import numpy as np

    from repro.analysis import RecordColumns
    from repro.analysis.metrics import _first_appearance_ids

    cols = RecordColumns.from_records(records)
    n_failed = int(np.count_nonzero(cols.failed))
    good = cols.measured()
    print(f"{'algorithm':<28s} {'records':>8s} {'mean Cmax/LB':>13s} {'mean mem/Mseq':>14s}")
    if len(good):
        ids, labels = _first_appearance_ids(good.heuristic)
        counts = np.bincount(ids, minlength=len(labels))
        cmax = np.bincount(ids, weights=good.makespan_ratio(), minlength=len(labels)) / counts
        mem = np.bincount(ids, weights=good.memory_ratio(), minlength=len(labels)) / counts
        for k, label in enumerate(labels):
            print(f"{str(label):<28s} {int(counts[k]):>8d} {cmax[k]:>13.3f} {mem[k]:>14.3f}")
    if n_failed:
        print(
            f"quarantined: {n_failed} scenario(s) "
            "(structured failed records in the checkpoint; re-run with "
            "--retry-failed to heal)",
            file=sys.stderr,
        )
    if args.report:
        for rep in reports:
            print(rep.summary())
    if args.output and args.output != checkpoint:
        from repro.analysis import save_records

        save_records(records, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.analysis import pack_store

    n = pack_store(args.src, args.dst, backend=args.store)
    print(f"packed {n} records: {args.src} -> {args.dst}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.analysis import merge_stores

    n = merge_stores(args.dst, args.src, backend=args.store)
    print(f"merged {n} records from {len(args.src)} shard(s) -> {args.dst}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        job_timeout=args.job_timeout,
    )


def _cmd_algos(args: argparse.Namespace) -> int:
    from repro import registry

    print(f"{'name':<24s} {'kind':<11s} {'params':<28s} description")
    for algo in registry.algorithms():
        params = ", ".join(f"{k}={v}" for k, v in algo.params.items()) or "-"
        print(f"{algo.name:<24s} {algo.kind:<11s} {params:<28s} {algo.doc}")
    print(f"total: {len(registry.names())} algorithms")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import registry
    from repro.core import memory_lower_bound, simulate
    from repro.core.bounds import makespan_lower_bound
    from repro.workloads import build_dataset

    try:
        algo = registry.get(args.algo)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    instances = build_dataset(scale=args.scale)
    if args.limit:
        instances = instances[: args.limit]
    # Sequential traversals run on one processor regardless of the sweep.
    counts = tuple(args.processors) if algo.kind == "parallel" else (1,)
    print(
        f"{'tree':<28s} {'p':>3s} {'makespan':>12s} {'Cmax/LB':>8s} "
        f"{'memory':>12s} {'mem/Mseq':>9s}"
    )
    # Forward the sweep backend only to algorithms that declare it (the
    # engine-based list schedulers); schedules are backend-independent.
    overrides = (
        {"backend": args.backend}
        if args.backend is not None and "backend" in algo.params
        else {}
    )
    for inst in instances:
        mseq = memory_lower_bound(inst.tree)
        for p in counts:
            sim = simulate(algo.run(inst.tree, p, **overrides), validate=args.verbose)
            cmax_lb = makespan_lower_bound(inst.tree, p)
            print(
                f"{inst.name:<28s} {p:>3d} {sim.makespan:>12.5g} "
                f"{sim.makespan / cmax_lb:>8.3f} {sim.peak_memory:>12.5g} "
                f"{sim.peak_memory / mseq:>9.3f}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.cli`` / the ``repro-trees`` script."""
    parser = argparse.ArgumentParser(
        prog="repro-trees",
        description="Reproduce 'Scheduling tree-shaped task graphs to "
        "minimize memory and makespan' (IPDPS 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--scale", default="small", choices=("tiny", "small", "medium", "large")
        )
        sp.add_argument(
            "--processors",
            type=int,
            nargs="+",
            default=[2, 4, 8, 16, 32],
            help="processor counts (paper: 2 4 8 16 32)",
        )
        sp.add_argument("--output", default=None, help="write CSV/JSON here")
        sp.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the experiment sweep (more than 1 "
            "runs on the supervised pool; records are identical)",
        )
        sp.add_argument(
            "--backend",
            default=None,
            choices=("auto", "python", "c", "kernel"),
            help="event-sweep backend for the engine-based schedulers "
            "(default: auto = fastest available; all backends produce "
            "bit-identical schedules)",
        )
        sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("dataset", help="list the assembly-tree data set")
    add_common(sp)
    sp.set_defaults(func=_cmd_dataset)

    sp = sub.add_parser("algos", help="list the algorithm registry")
    sp.set_defaults(func=_cmd_algos)

    sp = sub.add_parser("run", help="run any registry algorithm on the data set")
    add_common(sp)
    sp.add_argument("--algo", required=True, help="registry name (see `algos`)")
    sp.add_argument("--limit", type=int, default=0, help="number of trees (0 = all)")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser(
        "campaign",
        help="run a declarative (algorithms x p x caps) grid, resumable",
    )
    add_common(sp)
    sp.add_argument(
        "--algos",
        default="all",
        help="comma-separated registry names, or 'all' for every parallel "
        "algorithm (default)",
    )
    sp.add_argument(
        "--procs",
        default="2,4,8,16,32",
        help="comma-separated processor counts (default: the paper's five)",
    )
    sp.add_argument(
        "--caps",
        default="",
        help="comma-separated memory-cap factors (x the sequential optimal "
        "peak), applied to algorithms with a cap_factor parameter",
    )
    sp.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="checkpoint path (.jsonl file or columnar store directory): "
        "records stream here and a re-run of the same command continues "
        "where the checkpoint stops (byte-identical result)",
    )
    sp.add_argument(
        "--store",
        default="auto",
        choices=("auto", "jsonl", "columnar"),
        help="checkpoint backend for --resume/--output: jsonl streams one "
        "line per record, columnar seals numpy .npz segments behind a "
        "manifest (same records, ~10x faster million-record analysis); "
        "auto infers from the path (default)",
    )
    sp.add_argument("--limit", type=int, default=0, help="number of trees (0 = all)")
    sp.add_argument(
        "--supervise",
        action="store_true",
        help="run under the fault-tolerant worker pool even with one "
        "worker (--workers N > 1 always does): dedicated worker "
        "processes with crash/hang detection, bounded retries with "
        "exponential backoff, quarantine of poison scenarios and "
        "per-worker backend degradation (byte-identical records)",
    )
    sp.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="supervised mode: re-tries per scenario after an environmental "
        "failure before it is quarantined (default: 2)",
    )
    sp.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised mode: per-scenario wall-clock budget; a worker "
        "exceeding it is killed and the scenario retried (implies "
        "--supervise)",
    )
    sp.add_argument(
        "--retry-failed",
        action="store_true",
        help="on --resume, recompute quarantined scenarios instead of "
        "skipping them (truncates the checkpoint at the first failed "
        "record; implies --supervise)",
    )
    sp.add_argument(
        "--report",
        action="store_true",
        help="print the supervised run report (per-scenario attempts, "
        "backend fallbacks, respawns; implies --supervise)",
    )
    sp.add_argument("--fault-plan", default=None, help=argparse.SUPPRESS)
    sp.set_defaults(func=_cmd_campaign)

    sp = sub.add_parser("table1", help="regenerate Table 1")
    add_common(sp)
    sp.add_argument(
        "--records",
        default=None,
        metavar="PATH",
        help="consume an existing campaign checkpoint (.jsonl or columnar "
        "store directory) instead of re-running the experiments",
    )
    sp.set_defaults(func=_cmd_table1)

    sp = sub.add_parser("figure", help="regenerate Figure 6, 7 or 8")
    add_common(sp)
    sp.add_argument("--which", type=int, choices=(6, 7, 8), required=True)
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("theory", help="verify Figures 1-5 / Theorems 1-2")
    add_common(sp)
    sp.set_defaults(func=_cmd_theory)

    sp = sub.add_parser("memory-cap", help="memory-capped scheduling extension")
    add_common(sp)
    sp.add_argument("--limit", type=int, default=4, help="number of trees")
    sp.set_defaults(func=_cmd_memory_cap)

    sp = sub.add_parser("shapes", help="data-set shape statistics vs the paper")
    add_common(sp)
    sp.set_defaults(func=_cmd_shapes)

    sp = sub.add_parser("pareto", help="per-tree Pareto fronts over all schedulers")
    add_common(sp)
    sp.add_argument("--limit", type=int, default=3, help="number of trees")
    sp.set_defaults(func=_cmd_pareto)

    sp = sub.add_parser("report", help="generate the EXPERIMENTS.md body")
    add_common(sp)
    sp.add_argument(
        "--records",
        default=None,
        metavar="PATH",
        help="consume an existing campaign checkpoint (.jsonl or columnar "
        "store directory) instead of re-running the experiments",
    )
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser(
        "pack",
        help="convert a record store between backends (jsonl <-> columnar)",
    )
    sp.add_argument("src", help="source store (.jsonl file or store directory)")
    sp.add_argument("dst", help="destination store path")
    sp.add_argument(
        "--store",
        default="auto",
        choices=("auto", "jsonl", "columnar"),
        help="destination backend (auto: jsonl for .jsonl paths, else columnar)",
    )
    sp.set_defaults(func=_cmd_pack)

    sp = sub.add_parser(
        "merge",
        help="merge campaign record shards into one store",
    )
    sp.add_argument("dst", help="destination store path")
    sp.add_argument("src", nargs="+", help="source shards, merged in order")
    sp.add_argument(
        "--store",
        default="auto",
        choices=("auto", "jsonl", "columnar"),
        help="destination backend (auto: jsonl for .jsonl paths, else columnar)",
    )
    sp.set_defaults(func=_cmd_merge)

    sp = sub.add_parser(
        "serve",
        help="run the durable scheduling service (JSON job API over HTTP)",
        description=(
            "Expose the campaign runtime as a crash-safe job service: "
            "POST /jobs submits a grid, GET /jobs/<id> polls it, "
            "GET /jobs/<id>/records streams the checkpoint. Jobs are "
            "journaled on disk; after a crash or SIGKILL, restarting "
            "the server resumes every interrupted job byte-identically. "
            "SIGTERM drains gracefully (stop accepting, checkpoint "
            "in-flight work, exit 0)."
        ),
    )
    sp.add_argument("root", help="service state directory (jobs journal)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument(
        "--port", type=int, default=8042,
        help="TCP port; 0 picks a free one (printed as JSON on stdout)",
    )
    sp.add_argument(
        "--workers", type=int, default=1,
        help="supervised pool size shared by all jobs (default 1)",
    )
    sp.add_argument(
        "--queue-depth", type=int, default=16,
        help="max queued jobs before POST /jobs answers 429 (default 16)",
    )
    sp.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: none)",
    )
    sp.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
