"""Command-line interface for regenerating the paper's tables and figures.

Every experiment subcommand (``run``, ``campaign``, ``table1``,
``figure``, ``memory-cap``, ``pareto``, ``report``) runs one
:class:`~repro.analysis.campaign.Campaign` over the data set through
:func:`~repro.analysis.campaign.run_campaign` and only formats the
records. A bad grid option (an unknown algorithm, ``p < 1``, a bad cap,
``--limit < 0``, ``--workers < 1``, a foreign ``--resume`` checkpoint,
a missing or corrupt ``--records`` file, an ``--output`` that is not
the run's one ``.jsonl`` record file) prints one line on stderr and
exits 2. Records reach disk once, as they are computed: a ``.jsonl``
``--output`` of ``table1`` / ``campaign`` is the run's checkpoint.

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
       --processors 2 4 8 --caps 1.5,2.0 --resume out.jsonl --workers 4
   python -m repro.cli table1 --records out.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main"]

#: memory-cap factors (x the sequential optimal peak) of ``memory-cap``
#: and of the MemoryBounded points of ``pareto``
_MEMORY_CAP_FACTORS = (1.0, 1.5, 2.0, 4.0)
_PARETO_CAP_FACTORS = (1.0, 1.5, 2.0, 3.0)


class _Interrupted(Exception):
    """Raised by the campaign signal handlers (SIGINT/SIGTERM) so the
    run can shut its workers down cleanly and exit ``128 + signum``
    with a resume hint."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


class _BadInput(Exception):
    """A bad grid option: :func:`main` prints it as one line and exits 2."""


def _instances(args: argparse.Namespace) -> list:
    """The data set of ``--scale``, cut to the first ``--limit`` trees
    (0 = all) where the subcommand has a ``--limit``."""
    from repro.workloads import build_dataset

    instances = build_dataset(scale=args.scale)
    limit = getattr(args, "limit", 0)
    return instances[:limit] if limit else instances


def _run_grid(
    args: argparse.Namespace,
    algorithms,
    *,
    cap_factors=(),
    processor_counts=None,
    instances=None,
    note: str = "",
    pool: dict | None = None,
    **run,
) -> list:
    """The CLI's one grid path: ``algorithms`` x ``--processors`` (or
    ``processor_counts``) x ``cap_factors`` as one :class:`Campaign`
    (``--verbose`` validates every schedule) over the data set of
    ``--scale``/``--limit`` (or ``instances``), run by ``run_campaign``
    with ``--verbose`` progress; ``run`` holds extra ``run_campaign``
    keywords. With ``--workers`` > 1 or a ``pool`` (the settings of a
    supervised run) the grid runs on a ``SupervisorPool`` of
    ``--workers`` workers, and ``--report`` prints its run report. Bad
    input -- an option out of range, an unknown algorithm, a checkpoint
    of another campaign -- raises :class:`_BadInput`."""
    from repro.analysis.campaign import Campaign, run_campaign
    from repro.analysis.supervisor import SupervisorPool

    try:
        limit = getattr(args, "limit", 0)
        if limit < 0:
            raise ValueError(f"--limit must be >= 0, got {limit}")
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        campaign = Campaign(
            algorithms=tuple(algorithms),
            processor_counts=tuple(processor_counts or args.processors),
            cap_factors=tuple(cap_factors),
            validate=args.verbose,
        )
        # fail fast on unknown algorithm names, before building the data set
        per_tree = len(campaign.scenarios_for("-"))
    except KeyError as exc:
        raise _BadInput(exc.args[0]) from None
    except ValueError as exc:
        raise _BadInput(f"{args.command}: {exc}") from None
    if instances is None:
        instances = _instances(args)
    print(
        f"{args.command}: {len(instances)} trees x {per_tree} scenarios/tree = "
        f"{len(instances) * per_tree} records{note}",
        file=sys.stderr,
    )
    try:
        if pool is None and args.workers == 1:
            return run_campaign(instances, campaign, progress=args.verbose, **run)
        with SupervisorPool(workers=args.workers, **(pool or {})) as runtime:
            records = run_campaign(
                instances, campaign, runtime=runtime, progress=args.verbose, **run
            )
    except ValueError as exc:  # a foreign or corrupt checkpoint, a bad --timeout
        raise _BadInput(f"{args.command}: {exc}") from None
    if getattr(args, "report", False):
        print(runtime.report.summary())
    return records


def _records_file(args: argparse.Namespace):
    """The measured records of the ``--records`` file, as columns; a
    missing, corrupt or non-``.jsonl`` path, or one without a measured
    record, raises :class:`_BadInput`."""
    from repro.analysis import open_store

    try:
        records = open_store(args.records).columns(include_failed=False)
    except (OSError, ValueError) as exc:
        raise _BadInput(f"{args.command}: --records: {exc}") from None
    if not len(records):
        raise _BadInput(f"{args.command}: --records: {args.records} holds no measured record")
    return records


def _heuristics() -> tuple[str, ...]:
    """The paper's four Section 5 heuristics (Table 1, Figures 6-8)."""
    from repro.parallel import HEURISTICS

    return tuple(HEURISTICS)


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
    from repro.analysis import compute_table1_stats, render_table1, table1_csv

    checkpoint = args.output if args.output and args.output.endswith(".jsonl") else None
    if args.records:
        if checkpoint:
            raise _BadInput(
                f"table1: --output {args.output}: a .jsonl --output records a "
                f"fresh run; the records are already in {args.records}"
            )
        records = _records_file(args)
        print(
            f"loaded {len(records)} records from {args.records}", file=sys.stderr
        )
    else:
        records = _run_grid(args, _heuristics(), checkpoint=checkpoint)
    stats = compute_table1_stats(records)
    print(render_table1(stats))
    if args.output:
        if checkpoint is None:
            with open(args.output, "w") as fh:
                fh.write(table1_csv(stats) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis import figure_csv, figure_data, render_figure

    records = _run_grid(args, _heuristics())
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

    from repro import registry
    from repro.core import simulate
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
        sim = simulate(registry.run("ParSubtrees", t, p))
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
        sim = simulate(registry.run("ParInnerFirst", t, p))
        print(
            f"p={p} k={k}: M_seq={seq:g} (paper p+1={p + 1}), "
            f"ParInnerFirst {sim.peak_memory:g} "
            f"(paper (k-1)(p-1)+1 = {(k - 1) * (p - 1) + 1})"
        )
    print("== Figure 5: ParDeepestFirst memory blow-up ==")
    for c in (4, 8, 16):
        t = deepest_first_memory_tree(c, 6)
        seq = optimal_postorder(t).peak_memory
        sim = simulate(registry.run("ParDeepestFirst", t, c))
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
    import itertools

    from repro.analysis import ParetoPoint, hypervolume, pareto_front

    records = _run_grid(
        args, _heuristics() + ("MemoryBounded",), cap_factors=_PARETO_CAP_FACTORS
    )
    for p in dict.fromkeys(args.processors):
        block = (r for r in records if r.p == p)
        for tree, group in itertools.groupby(block, key=lambda r: r.tree):
            points = [ParetoPoint(r.makespan, r.memory, r.heuristic) for r in group]
            front = pareto_front(points)
            ref = ParetoPoint(
                max(q.makespan for q in points) * 1.05,
                max(q.memory for q in points) * 1.05,
            )
            print(f"\n{tree} (p={p}): front of {len(points)} schedules, "
                  f"hypervolume {hypervolume(points, ref):.4g}")
            for q in front:
                print(f"  makespan {q.makespan:>12.5g}  memory {q.memory:>12.5g}  {q.label}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    instances = _instances(args)
    if args.records:
        # columns straight from the file: every section (table 1,
        # groupby, figures) runs on the vectorised paths
        records = _records_file(args)
    else:
        records = _run_grid(args, _heuristics(), instances=instances)
    try:
        text = build_report(records, instances)
    except ValueError as exc:  # e.g. a --records file without the figures' reference
        if not args.records:
            raise
        raise _BadInput(f"report: --records: {args.records}: {exc}") from None
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_memory_cap(args: argparse.Namespace) -> int:
    import itertools

    records = _run_grid(args, ("MemoryBounded",), cap_factors=_MEMORY_CAP_FACTORS)
    counts = dict.fromkeys(args.processors)
    for p in counts:
        if len(counts) > 1:
            print(f"p={p}")
        print(f"{'tree':<28s} {'cap/Mseq':>9s} {'makespan':>12s} {'peak/Mseq':>10s}")
        # each (tree, p) holds one record per cap factor, in factor order
        block = (r for r in records if r.p == p)
        for r, factor in zip(block, itertools.cycle(_MEMORY_CAP_FACTORS)):
            print(
                f"{r.tree:<28s} {factor:>9.1f} {r.makespan:>12.5g} "
                f"{r.memory_ratio:>10.3f}"
            )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import signal

    from repro import registry

    if args.algos.strip().lower() == "all":
        algos = tuple(registry.names("parallel"))
    else:
        algos = tuple(a for a in args.algos.replace(",", " ").split() if a)
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
            raise _BadInput(f"--fault-plan: {exc}") from None
    supervise = bool(
        args.supervise
        or args.workers > 1
        or args.timeout is not None
        or fault_plan is not None
        or args.report
    )
    if args.output and not args.output.endswith(".jsonl"):
        raise _BadInput(
            f"campaign: --output must be a .jsonl path (the records stream "
            f"there as they are computed), got {args.output!r}"
        )
    if args.output and args.resume and (
        os.path.abspath(args.output) != os.path.abspath(args.resume)
    ):
        raise _BadInput(
            f"campaign: --output {args.output} and --resume {args.resume} name "
            "two files; the records are written once, to the checkpoint"
        )
    checkpoint = args.resume or args.output
    note = (
        (f" -> {checkpoint}" + (" (resumable)" if args.resume else "") if checkpoint else "")
        + (" [supervised]" if supervise else "")
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
    try:
        records = _run_grid(
            args,
            algos,
            # parsed inside the grid path: a bad number is one error line
            cap_factors=(float(x) for x in args.caps.replace(",", " ").split()),
            note=note,
            checkpoint=checkpoint,
            resume=bool(args.resume),
            retry_failed=args.retry_failed,
            pool=(
                dict(retries=args.retries, timeout=args.timeout, fault_plan=fault_plan)
                if supervise
                else None
            ),
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

    # Sequential traversals run on one processor regardless of the sweep.
    sequential = args.algo in registry.names("sequential")
    records = _run_grid(args, (args.algo,), processor_counts=(1,) if sequential else None)
    print(
        f"{'tree':<28s} {'p':>3s} {'makespan':>12s} {'Cmax/LB':>8s} "
        f"{'memory':>12s} {'mem/Mseq':>9s}"
    )
    for r in records:
        print(
            f"{r.tree:<28s} {r.p:>3d} {r.makespan:>12.5g} "
            f"{r.makespan_ratio:>8.3f} {r.memory:>12.5g} "
            f"{r.memory_ratio:>9.3f}"
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

    def add_scale(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--scale", default="small", choices=("tiny", "small", "medium", "large")
        )

    def add_grid(
        sp: argparse.ArgumentParser, processors=(2, 4, 8, 16, 32), limit=None
    ) -> None:
        """The options of the grid subcommands (see ``_run_grid``)."""
        add_scale(sp)
        sp.add_argument(
            "--processors",
            type=int,
            nargs="+",
            default=list(processors),
            help=f"processor counts (default: {' '.join(map(str, processors))}; "
            "paper: 2 4 8 16 32)",
        )
        sp.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the experiment sweep (more than 1 "
            "runs on the supervised pool; records are identical)",
        )
        sp.add_argument(
            "--verbose",
            action="store_true",
            help="validate every schedule and print per-tree progress",
        )
        if limit is not None:
            sp.add_argument(
                "--limit", type=int, default=limit,
                help=f"number of trees (0 = all; default {limit})",
            )

    def add_output(sp: argparse.ArgumentParser, what: str) -> None:
        sp.add_argument("--output", default=None, help=f"write {what} here")

    def add_records(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--records",
            default=None,
            metavar="PATH",
            help="consume an existing campaign checkpoint (.jsonl file) "
            "instead of re-running the experiments",
        )

    sp = sub.add_parser("dataset", help="list the assembly-tree data set")
    add_scale(sp)
    sp.set_defaults(func=_cmd_dataset)

    sp = sub.add_parser("algos", help="list the algorithm registry")
    sp.set_defaults(func=_cmd_algos)

    sp = sub.add_parser("run", help="run any registry algorithm on the data set")
    add_grid(sp, limit=0)
    sp.add_argument("--algo", required=True, help="registry name (see `algos`)")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser(
        "campaign",
        help="run a declarative (algorithms x p x caps) grid, resumable",
    )
    add_grid(sp, limit=0)
    add_output(
        sp,
        "the records as they are computed (a .jsonl checkpoint; with "
        "--resume, the same file)",
    )
    sp.add_argument(
        "--algos",
        default="all",
        help="comma-separated registry names, or 'all' for every parallel "
        "algorithm (default)",
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
        help="checkpoint path (.jsonl file): records stream here and a "
        "re-run of the same command continues where the checkpoint stops "
        "(byte-identical result)",
    )
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
        "record)",
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
    add_grid(sp)
    add_output(
        sp,
        "the records as they are computed (a .jsonl path; not with "
        "--records), or the table (CSV, any other path)",
    )
    add_records(sp)
    sp.set_defaults(func=_cmd_table1)

    sp = sub.add_parser("figure", help="regenerate Figure 6, 7 or 8")
    add_grid(sp)
    add_output(sp, "the figure data (CSV)")
    sp.add_argument("--which", type=int, choices=(6, 7, 8), required=True)
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("theory", help="verify Figures 1-5 / Theorems 1-2")
    sp.set_defaults(func=_cmd_theory)

    sp = sub.add_parser("memory-cap", help="memory-capped scheduling extension")
    add_grid(sp, processors=(2,), limit=4)
    sp.set_defaults(func=_cmd_memory_cap)

    sp = sub.add_parser("shapes", help="data-set shape statistics vs the paper")
    add_scale(sp)
    sp.set_defaults(func=_cmd_shapes)

    sp = sub.add_parser("pareto", help="per-tree Pareto fronts over all schedulers")
    add_grid(sp, processors=(2,), limit=3)
    sp.set_defaults(func=_cmd_pareto)

    sp = sub.add_parser("report", help="generate the EXPERIMENTS.md body")
    add_grid(sp)
    add_output(sp, "the report (markdown)")
    add_records(sp)
    sp.set_defaults(func=_cmd_report)

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
    try:
        return args.func(args)
    except _BadInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
