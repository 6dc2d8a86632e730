"""The program's layers as the benchmark wraps and reports them.

:func:`install` wraps the public entry points of every layer with
spans (see :mod:`perfbench.spans`); :func:`per_layer` turns the spans
recorded during a traced phase into the per-layer metrics. Nothing
under ``src/`` is edited: every wrapper is an attribute swap undone by
``Patches.restore()``.

Layer      span name       wrapped entry points
---------  --------------  -----------------------------------------------
prepare    prepare         PreparedTree.__init__ and its lazy columns
                           (pending0, alloc, free_on_end, exactness flags,
                           weighted_depths)
           optimal         PreparedTree.optimal
ranks      ranks           registry.Algorithm.batch_spec
subtrees   subtrees        registry.run of ParSubtrees, ParSubtreesOptim,
                           MemoryAwareSubtrees (other names: span "run")
sweep      sweep           core.engine.sweep_batch
simulate   simulate        analysis.campaign.simulate
store      store.append    analysis.store.JsonlStore.append
           store.read      JsonlStore.columns, SchedulerService.records_file
           (counter)       os.fsync, charged to the innermost open span
tables     table1          opened by the workload around Table 1
ipc        ipc.run         analysis.supervisor.SupervisorPool.run
journal    journal         service.jobs.JobStore.create / .transition
http       http.dispatch   service.server.dispatch
           http.poll       service.client.ServiceClient.status
           http.fetch      service.client.ServiceClient.fetch_records
"""

from __future__ import annotations

import os
import statistics
import time

from .spans import Patches, Tracer, spanned

__all__ = ["PER_LAYER", "SUBTREE_ALGOS", "install", "per_layer"]

#: the subtree-splitting family: registry algorithms without a megabatch
#: sweep spec, run one scenario at a time through ``registry.run``.
SUBTREE_ALGOS = ("ParSubtrees", "ParSubtreesOptim", "MemoryAwareSubtrees")

#: megabatch output bytes per (scenario, node): start and end (float64),
#: proc and activation (int64) and the memory trace (float64).
BUFFER_BYTES_PER_CELL = 40

#: every per-layer metric with its unit, in report order.
PER_LAYER: dict[str, str] = {
    "prepare.calls": "count",
    "prepare.busy_s": "s",
    "optimal.busy_s": "s",
    "ranks.calls": "count",
    "ranks.busy_s": "s",
    "subtrees.calls": "count",
    "subtrees.busy_s": "s",
    **{f"subtrees.{a}.busy_s": "s" for a in SUBTREE_ALGOS},
    "sweep.calls": "count",
    "sweep.scenarios": "count",
    "sweep.busy_s": "s",
    "sweep.threads": "count",
    "sweep.buffer_bytes": "bytes",
    "simulate.calls": "count",
    "simulate.busy_s": "s",
    "store.appends": "count",
    "store.append_s": "s",
    "store.fsyncs": "count",
    "store.bytes_written": "bytes",
    "store.read_s": "s",
    "table1.busy_s": "s",
    "ipc.run_s": "s",
    "ipc.worker_busy_s": "s",
    "ipc.wait_s": "s",
    "ipc.retries": "count",
    "ipc.respawns": "count",
    "ipc.probes": "count",
    "journal.ops": "count",
    "journal.busy_s": "s",
    "queue.wait_p50_s": "s",
    "http.requests": "count",
    "http.dispatch_s": "s",
    "http.fetch_s": "s",
    "http.polls_per_job": "count/job",
    "trace.overhead_frac": "fraction",
}


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; returns the undo handle."""
    from repro import registry
    from repro.analysis import campaign, store
    from repro.analysis.supervisor import SupervisorPool
    from repro.core import engine
    from repro.core.prepared import PreparedTree
    from repro.service import client, jobs, server

    patches = Patches()

    patches.wrap(
        PreparedTree, "__init__",
        spanned(tracer, "prepare", before=lambda *a, **k: {"kind": "init"}),
    )
    lazy = spanned(tracer, "prepare", before=lambda *a, **k: {"kind": "lazy"})
    for prop in ("pending0", "alloc", "free_on_end"):
        patches.wrap(PreparedTree, prop, lambda p: property(lazy(p.fget)))
    for meth in ("_exactness_flags", "weighted_depths"):
        patches.wrap(PreparedTree, meth, lazy)
    patches.wrap(PreparedTree, "optimal", spanned(tracer, "optimal"))
    patches.wrap(registry.Algorithm, "batch_spec", spanned(tracer, "ranks"))

    def run_attrs(name, *_a, **_k) -> dict:
        if name in SUBTREE_ALGOS:
            return {"name": "subtrees", "algorithm": name}
        return {"algorithm": name}

    patches.wrap(registry, "run", spanned(tracer, "run", before=run_attrs))

    def sweep_attrs(tree, scenarios, **_k) -> dict:
        return {"scenarios": len(scenarios), "n": tree.n}

    def sweep_done(sp, out, *_a, **_k) -> None:
        sp.attrs["threads"] = out.threads

    patches.wrap(
        engine, "sweep_batch",
        spanned(tracer, "sweep", before=sweep_attrs, after=sweep_done),
    )
    patches.wrap(campaign, "simulate", spanned(tracer, "simulate"))

    def size_of(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def append_attrs(st, records) -> dict:
        return {"size0": size_of(st.path), "records": len(records)}

    def append_done(sp, _out, st, _records) -> None:
        sp.attrs["bytes"] = size_of(st.path) - sp.attrs["size0"]

    patches.wrap(
        store.JsonlStore, "append",
        spanned(tracer, "store.append", before=append_attrs, after=append_done),
    )
    patches.wrap(store.JsonlStore, "columns", spanned(tracer, "store.read"))
    patches.wrap(server.SchedulerService, "records_file", spanned(tracer, "store.read"))

    def counted_fsync(fsync):
        def wrapper(fd):
            cur = tracer.current()
            tracer.count(f"fsync:{cur.name if cur is not None else '-'}")
            return fsync(fd)

        return wrapper

    patches.wrap(os, "fsync", counted_fsync)

    def ipc_done(sp, report, *_a, **_k) -> None:
        attempts = [a for s in report.scenarios for a in s.attempts]
        sp.attrs["busy"] = sum(a.seconds for a in attempts)
        sp.attrs["retries"] = len(attempts) - len(report.scenarios)
        sp.attrs["respawns"] = report.respawns
        sp.attrs["probes"] = report.probes

    patches.wrap(SupervisorPool, "run", spanned(tracer, "ipc.run", after=ipc_done))

    created_at: dict[str, float] = {}

    def create_done(sp, out, *_a, **_k) -> None:
        job, created = out
        if created:
            created_at[job.id] = sp.start

    def transition_attrs(_st, jid, to, **_k) -> dict:
        if to == "running" and jid in created_at:
            tracer.sample("queue.wait", time.perf_counter() - created_at.pop(jid))
        return {"op": f"transition:{to}"}

    patches.wrap(
        jobs.JobStore, "create",
        spanned(tracer, "journal", before=lambda *a, **k: {"op": "create"}, after=create_done),
    )
    patches.wrap(jobs.JobStore, "transition", spanned(tracer, "journal", before=transition_attrs))
    patches.wrap(server, "dispatch", spanned(tracer, "http.dispatch"))
    patches.wrap(client.ServiceClient, "status", spanned(tracer, "http.poll"))
    patches.wrap(client.ServiceClient, "fetch_records", spanned(tracer, "http.fetch"))
    return patches


def per_layer(tracer: Tracer, jobs_done: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase (``trace.overhead_frac``
    is added by the caller, which also timed the untraced phase).

    Busy times are self times. A layer the workload does not exercise
    reads 0 (``ipc.*`` on the in-process workloads, ``subtrees.*`` on
    serve-small).
    """
    t = tracer
    subtrees = t.named("subtrees")
    sweeps = t.named("sweep")
    ipc = t.named("ipc.run")
    run_s = sum(s.self_s for s in ipc)
    busy_s = sum(s.attrs["busy"] for s in ipc)
    waits = t.samples.get("queue.wait", [])
    out: dict[str, float] = {
        "prepare.calls": sum(1 for s in t.named("prepare") if s.attrs["kind"] == "init"),
        "prepare.busy_s": t.self_s("prepare"),
        "optimal.busy_s": t.self_s("optimal"),
        "ranks.calls": t.calls("ranks"),
        "ranks.busy_s": t.self_s("ranks"),
        "subtrees.calls": len(subtrees),
        "subtrees.busy_s": sum(s.self_s for s in subtrees),
    }
    for algo in SUBTREE_ALGOS:
        out[f"subtrees.{algo}.busy_s"] = sum(
            s.self_s for s in subtrees if s.attrs["algorithm"] == algo
        )
    out.update({
        "sweep.calls": len(sweeps),
        "sweep.scenarios": sum(s.attrs["scenarios"] for s in sweeps),
        "sweep.busy_s": sum(s.self_s for s in sweeps),
        "sweep.threads": max((s.attrs.get("threads", 0) for s in sweeps), default=0),
        "sweep.buffer_bytes": max(
            (BUFFER_BYTES_PER_CELL * s.attrs["scenarios"] * s.attrs["n"] for s in sweeps),
            default=0,
        ),
        "simulate.calls": t.calls("simulate"),
        "simulate.busy_s": t.self_s("simulate"),
        "store.appends": t.calls("store.append"),
        "store.append_s": t.self_s("store.append"),
        "store.fsyncs": t.counts.get("fsync:store.append", 0),
        "store.bytes_written": sum(s.attrs.get("bytes", 0) for s in t.named("store.append")),
        "store.read_s": t.self_s("store.read"),
        "table1.busy_s": t.self_s("table1"),
        "ipc.run_s": run_s,
        "ipc.worker_busy_s": busy_s,
        "ipc.wait_s": run_s - busy_s,
        "ipc.retries": sum(s.attrs["retries"] for s in ipc),
        "ipc.respawns": sum(s.attrs["respawns"] for s in ipc),
        "ipc.probes": sum(s.attrs["probes"] for s in ipc),
        "journal.ops": t.calls("journal"),
        "journal.busy_s": t.self_s("journal"),
        "queue.wait_p50_s": statistics.median(waits) if waits else 0.0,
        "http.requests": t.calls("http.dispatch"),
        "http.dispatch_s": t.self_s("http.dispatch"),
        "http.fetch_s": t.total_s("http.fetch"),
        "http.polls_per_job": t.calls("http.poll") / jobs_done if jobs_done else 0.0,
    })
    return out
