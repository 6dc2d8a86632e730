"""Declarative campaign grids: (instances x algorithms x p x cap factors).

The paper's whole experimental section is one shape of computation:
sweep a set of schedulers over a set of trees while varying the
processor count (and, for the memory-capped extension, the cap). A
:class:`Campaign` states that grid declaratively; :func:`run_campaign`
expands it into scenarios, **groups them by tree**, and executes each
group against a single :class:`~repro.core.prepared.PreparedTree` -- so
the per-tree preparation (CSR counts, memory columns, the optimal
postorder, every priority-rank permutation) is paid once per tree
instead of once per scenario. Every algorithm in
:mod:`repro.registry` gets grid support for free: cap factors apply to
the algorithms that declare a ``cap_factor`` parameter, the engine
backend to the ones that declare ``backend``.

On top of the grouping, each tree's engine-backed scenarios are swept
in **one megabatch kernel call** (:func:`repro.core.engine.sweep_batch`):
the stacked grid crosses the Python boundary once and the C kernel
sweeps it GIL-free, with bit-identical per-scenario results.

Execution properties, all property-tested:

* **Deterministic order.** Scenarios expand p-major then
  algorithm-major (then cap-major), matching the historical
  ``run_experiments`` stream; records are collected in submission
  order, so serial, pooled, shared-memory and sharded runs are
  byte-identical.
* **Resumable checkpoints.** With ``checkpoint=path`` every record is
  appended to a record store (flushed per record) -- the historical
  JSONL file, or a columnar segment store with ``store="columnar"``
  (:mod:`repro.analysis.store`). ``resume=True`` streams the store
  back, drops torn crash residue, verifies the prefix against the
  campaign's expected scenario stream, and only runs what is missing
  -- a resumed JSONL file is byte-for-byte identical to an
  uninterrupted run, and a resumed columnar store packs to the same
  bytes.
* **Sharding.** Very large single trees (``shard_nodes=``) have their
  scenario slice split into contiguous chunks across the pool; combined
  with the shared-memory transport the workers attach zero-copy to one
  block, so intra-tree fan-out costs O(1) payload per chunk.
"""

from __future__ import annotations

import multiprocessing
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro import registry
from repro.core.prepared import PreparedTree
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.testing import faults
from repro.workloads.dataset import TreeInstance, PROCESSOR_COUNTS

from .experiments import FailedRecord, ScenarioRecord
from .store import RecordStore, open_store
from .supervisor import CampaignAborted

__all__ = ["Campaign", "Scenario", "run_campaign", "recover_checkpoint"]


@dataclass(frozen=True)
class Scenario:
    """One expanded cell of a campaign grid.

    ``label`` is what lands in :attr:`ScenarioRecord.heuristic` -- the
    bare algorithm name, or ``name@capF`` when a cap factor was applied
    -- and, together with ``(tree, p)``, is the resume key of the
    record.
    """

    tree: str
    algorithm: str
    p: int
    params: tuple[tuple[str, Any], ...] = ()
    label: str = ""

    def key(self) -> tuple[str, str, int]:
        """The checkpoint identity of this scenario's record."""
        return (self.tree, self.label, self.p)


@dataclass(frozen=True)
class Campaign:
    """A declarative experiment grid over the algorithm registry.

    Parameters
    ----------
    algorithms:
        registry names (any kind; sequential traversals run on one
        processor of the ``p``-processor platform like ``repro run``).
    processor_counts:
        the ``p`` sweep (default: the paper's five).
    cap_factors:
        memory-cap sweep, as multiples of the sequential optimal peak.
        Applied to every algorithm that declares a ``cap_factor``
        parameter (``MemoryBounded``, ``MemoryAwareSubtrees``); other
        algorithms run once per ``p`` regardless.
    backend:
        engine sweep backend forwarded to every algorithm that declares
        ``backend`` (bit-identical results either way).
    validate:
        re-check schedule validity inside the simulator (slower).
    """

    algorithms: tuple[str, ...]
    processor_counts: tuple[int, ...] = PROCESSOR_COUNTS
    cap_factors: tuple[float, ...] = ()
    backend: str | None = None
    validate: bool = False

    def scenarios_for(self, tree_name: str) -> list[Scenario]:
        """Expand the grid for one tree (p-major, algorithm-minor,
        cap-innermost -- the historical record order)."""
        out: list[Scenario] = []
        for p in self.processor_counts:
            for name in self.algorithms:
                algo = registry.get(name)  # fails fast on unknown names
                base: dict[str, Any] = {}
                if self.backend is not None and "backend" in algo.params:
                    base["backend"] = self.backend
                if self.cap_factors and "cap_factor" in algo.params:
                    for factor in self.cap_factors:
                        out.append(
                            Scenario(
                                tree=tree_name,
                                algorithm=name,
                                p=int(p),
                                params=tuple(
                                    {**base, "cap_factor": float(factor)}.items()
                                ),
                                label=f"{name}@cap{factor:g}",
                            )
                        )
                else:
                    out.append(
                        Scenario(
                            tree=tree_name,
                            algorithm=name,
                            p=int(p),
                            params=tuple(base.items()),
                            label=name,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# workers: one PreparedTree per (tree, worker), reused across the slice
# ----------------------------------------------------------------------
def _scenario_records(
    name: str,
    prepared: PreparedTree,
    scenarios: Sequence[Scenario],
    validate: bool,
    megabatch: bool = True,
) -> list[ScenarioRecord]:
    """Records of one scenario slice against one shared preparation.

    The sequential memory lower bound is computed once per tree and
    shared across every scenario, exactly as in the paper (the bound
    does not depend on ``p``), and every run reuses the prepared rank
    permutations and typed sweep columns.

    With ``megabatch`` (the default) every scenario whose algorithm
    registers a sweep spec is swept in **one batched kernel call**
    (see :func:`repro.core.engine.sweep_batch`); the rest -- the
    subtree-splitting family, sequential traversals -- run unbatched at
    their position in the slice. Records (and any scenario error) are
    emitted in slice order either way, so the stream is byte-identical
    to the unbatched path.
    """
    mem_lb = prepared.optimal().peak_memory
    outcomes: dict[int, Any] = {}
    if megabatch:
        from repro.core.engine import sweep_batch

        specs = []
        idxs: list[int] = []
        backend: str | None = None
        for i, sc in enumerate(scenarios):
            params = dict(sc.params)
            spec = registry.get(sc.algorithm).batch_spec(prepared, sc.p, **params)
            if spec is None:
                continue
            b = params.get("backend")
            if not idxs:
                backend = b
            elif b != backend:
                # mixed per-scenario backends (hand-built slices only):
                # batch the leading backend, run the rest unbatched.
                continue
            specs.append(spec)
            idxs.append(i)
        if idxs:
            run = sweep_batch(prepared, specs, backend=backend)
            outcomes = dict(zip(idxs, run.outcomes))
    records: list[ScenarioRecord] = []
    for i, sc in enumerate(scenarios):
        out = outcomes.get(i)
        if out is None:
            schedule = registry.run(sc.algorithm, prepared, sc.p, **dict(sc.params))
        elif isinstance(out, Exception):
            raise out  # at its slice position, exactly as unbatched
        else:
            schedule = out
        result = simulate(schedule, validate=validate)
        records.append(
            ScenarioRecord(
                tree=name,
                n=prepared.n,
                p=sc.p,
                heuristic=sc.label,
                makespan=result.makespan,
                memory=result.peak_memory,
                memory_lb=mem_lb,
                makespan_lb=prepared.makespan_lower_bound(sc.p),
            )
        )
    return records


#: process-local cache of prepared trees for sharded shared-memory
#: groups (several chunks of one tree may land on the same worker).
_PREPARED_CACHE: "OrderedDict[tuple, PreparedTree]" = OrderedDict()
_PREPARED_CACHE_SIZE = 2


def _prepared_cached(key: tuple, tree: TaskTree) -> PreparedTree:
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        prepared = PreparedTree(tree)
        _PREPARED_CACHE[key] = prepared
        while len(_PREPARED_CACHE) > _PREPARED_CACHE_SIZE:
            _PREPARED_CACHE.popitem(last=False)
    else:
        _PREPARED_CACHE.move_to_end(key)
    return prepared


def _campaign_slice(payload: tuple) -> list[ScenarioRecord]:
    """Pool entry point: prepare the payload's tree once, run its slice."""
    if payload[0] == "shm":
        _, shm_name, d, scenarios, validate, megabatch = payload
        shm = _shm_attach(shm_name)
        views = _shm_views(shm.buf, d["base"], d["n"])
        for v in views:  # the block is shared across workers: never writable
            v.setflags(write=False)
        tree = TaskTree(*views)
        prepared = _prepared_cached((shm_name, d["base"]), tree)
        name = d["name"]
    else:
        _, inst, scenarios, validate, megabatch = payload
        prepared = PreparedTree(inst.tree)
        name = inst.name
    return _scenario_records(name, prepared, scenarios, validate, megabatch)


# ----------------------------------------------------------------------
# shared-memory transport: workers attach to one block of tree arrays
# instead of unpickling per-tree copies
# ----------------------------------------------------------------------

#: process-local cache of attached blocks (one entry per pool lifetime).
_SHM_ATTACHED: dict = {}


def _shm_views(buf, base: int, n: int) -> tuple[np.ndarray, ...]:
    """The four typed views of one tree inside a block: ``parent``
    (int64) then ``w``, ``f``, ``sizes`` (float64), contiguous at
    ``base`` -- 32 bytes per node. Single source of truth for the
    layout, used both when packing and when attaching."""
    return (
        np.ndarray(n, dtype=np.int64, buffer=buf, offset=base),
        np.ndarray(n, dtype=np.float64, buffer=buf, offset=base + 8 * n),
        np.ndarray(n, dtype=np.float64, buffer=buf, offset=base + 16 * n),
        np.ndarray(n, dtype=np.float64, buffer=buf, offset=base + 24 * n),
    )


def _shm_pack(instances: Sequence[TreeInstance]):
    """Copy every instance's tree arrays into one shared-memory block.

    Returns the block and one small picklable descriptor per instance.
    The block is unlinked before re-raising if packing fails partway, so
    aborted campaigns never leave named segments behind.
    """
    from multiprocessing import shared_memory

    total = sum(inst.tree.n for inst in instances) * 32
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        descriptors = []
        base = 0
        for inst in instances:
            t = inst.tree
            for view, src in zip(
                _shm_views(shm.buf, base, t.n), (t.parent, t.w, t.f, t.sizes)
            ):
                view[:] = src
            descriptors.append({"name": inst.name, "n": t.n, "base": base})
            base += 32 * t.n
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm, descriptors


def _shm_attach(name: str):
    """Attach to a block once per worker process (cached).

    Ownership stays with the creator: only the parent unlinks. On
    Python < 3.13 attaching *also* registers the block with the
    resource tracker (bpo-38119), which would make a worker's tracker
    consider it leaked and destroy it; suppress that registration
    (newer Pythons expose ``track=False`` for exactly this).
    """
    shm = _SHM_ATTACHED.get(name)
    if shm is None:
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def register(rname, rtype):  # pragma: no cover - trivial shim
                if rtype != "shared_memory":
                    original_register(rname, rtype)

            resource_tracker.register = register
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        _SHM_ATTACHED[name] = shm
    return shm


# ----------------------------------------------------------------------
# resumable checkpoints
# ----------------------------------------------------------------------
def recover_checkpoint(path: str) -> tuple[list[ScenarioRecord | FailedRecord], int]:
    """Read a (possibly crash-truncated) JSONL checkpoint.

    Returns the complete records and the byte offset of the valid
    prefix. Only whole lines terminated by a newline count: a final
    line without its newline is the residue of an interrupted flush and
    is dropped (resuming truncates the file there, so the appended
    continuation stays byte-identical to an uninterrupted run). A
    malformed *complete* line cannot be crash residue and raises
    ``ValueError``. Quarantined scenarios come back as
    :class:`FailedRecord` at their stream positions.
    """
    records, offsets, pos = _recover_with_offsets(path)
    return records, pos


def _recover_with_offsets(
    path: str,
) -> tuple[list[ScenarioRecord | FailedRecord], list[int], int]:
    """:func:`recover_checkpoint` plus the byte offset of each record's
    line (what ``retry_failed`` needs to truncate the file at the first
    quarantined scenario and recompute from there)."""
    import json

    with open(path, "rb") as fh:
        data = fh.read()
    records: list[ScenarioRecord | FailedRecord] = []
    offsets: list[int] = []
    pos = 0
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos)
        if nl < 0:
            break  # unterminated final line: crash residue, drop it
        line = data[pos:nl].strip()
        if line:
            try:
                row = json.loads(line)
                record = FailedRecord(**row) if row.get("failed") else ScenarioRecord(**row)
            except (ValueError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"{path}: malformed record on a complete line "
                    f"(not a truncated tail; the checkpoint is corrupt): {exc}"
                ) from None
            records.append(record)
            offsets.append(pos)
        pos = nl + 1
    return records, offsets, pos


def _split_slices(items: Sequence, parts: int) -> list[Sequence]:
    """Split ``items`` into ``parts`` contiguous, near-equal chunks."""
    parts = max(1, min(parts, len(items)))
    bounds = np.linspace(0, len(items), parts + 1).astype(int)
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def run_campaign(
    instances: Iterable[TreeInstance],
    campaign: Campaign,
    *,
    workers: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    store: "str | RecordStore | None" = None,
    shared_memory: bool = False,
    chunksize: int = 1,
    progress: bool = False,
    shard_nodes: int | None = None,
    megabatch: bool = True,
    supervise: bool = False,
    retries: int = 2,
    timeout: float | None = None,
    backoff: float = 0.25,
    fault_plan: "faults.FaultPlan | None" = None,
    retry_failed: bool = False,
    report: list | None = None,
    pool: "SupervisorPool | None" = None,
    prepare: "Callable[[TreeInstance], PreparedTree] | None" = None,
    abort: "threading.Event | None" = None,
) -> list[ScenarioRecord | FailedRecord]:
    """Execute a campaign grid, optionally resuming a checkpoint.

    Parameters
    ----------
    instances, campaign:
        the trees and the declarative grid to run over them.
    workers:
        multiprocessing pool size; 1 runs in process. Any value yields
        the identical record stream (groups are dispatched and
        collected in order).
    checkpoint:
        JSONL path receiving every record as soon as it exists (flushed
        per record). Without ``resume`` the file is truncated first.
    resume:
        continue a previous run of the *same* campaign from
        ``checkpoint``: completed records are loaded (a truncated final
        line is dropped and overwritten), verified against the expected
        scenario stream, and only missing scenarios are executed. The
        finished file is byte-identical to an uninterrupted run.
    store:
        record-store backend for the checkpoint: ``"jsonl"`` (default
        for ``.jsonl`` paths), ``"columnar"`` (directory of npz column
        segments + JSONL tail; see :mod:`repro.analysis.store`) or
        ``"parquet"`` (requires pyarrow), or a ready
        :class:`~repro.analysis.store.RecordStore` instance (then
        ``checkpoint`` may be omitted). Every backend honours the same
        crash-safe resume contract, and the record *stream* is
        identical across backends (property-tested) -- columnar runs
        pack back to byte-identical JSONL.
    shared_memory:
        ship tree arrays to workers through one
        ``multiprocessing.shared_memory`` block (zero-copy attach).
    chunksize:
        work units per pool task.
    progress:
        print one line per completed tree.
    shard_nodes:
        when set and ``workers > 1``, trees with at least this many
        nodes have their scenario slice split across up to ``workers``
        contiguous chunks (each chunk re-prepares the tree, so this
        pays off when the per-scenario work dominates the preparation
        -- very large trees, many scenarios). Record order is
        unchanged.
    megabatch:
        sweep each tree's batchable scenarios in one kernel call
        (default). ``False`` restores the per-scenario
        loop; the record stream is byte-identical either way.
    supervise:
        run the grid under the fault-tolerant worker pool of
        :mod:`repro.analysis.supervisor`: dedicated worker processes
        with crash/hang detection, per-scenario retries with
        exponential backoff, quarantine of poison scenarios as
        :class:`FailedRecord` stream entries, and per-worker backend
        health probing with graceful degradation (c -> python).
        Scenarios are dispatched one at a time (``megabatch``
        and ``shard_nodes`` do not apply); the record stream -- and the
        checkpoint -- is byte-identical to the unsupervised modes.
    retries:
        supervised mode: how many times a scenario is *re*-tried after
        an environmental failure (crash, timeout, transient error)
        before being quarantined; deterministic scheduler errors
        (infeasible caps, bad parameters) quarantine immediately.
    timeout:
        supervised mode: per-scenario wall-clock budget in seconds;
        a worker exceeding it is killed and the scenario retried.
    backoff:
        supervised mode: base of the exponential retry delay
        (``backoff * 2**(attempt-1)`` seconds).
    fault_plan:
        deterministic fault injection
        (:class:`repro.testing.faults.FaultPlan`) for the chaos tests
        and the hidden ``--fault-plan`` CLI flag; default: the
        ``REPRO_FAULT_PLAN`` environment variable, if set.
    retry_failed:
        on resume, do not skip quarantined scenarios: the checkpoint
        is truncated at the first :class:`FailedRecord` and everything
        from there is recomputed, healing the file to byte-identity
        with a fault-free run (when the fault is gone).
    report:
        optional mutable list; supervised runs append their
        :class:`~repro.analysis.supervisor.RunReport` (per-scenario
        attempts, backend fallbacks, respawns, timings).
    pool:
        a live :class:`~repro.analysis.supervisor.SupervisorPool` to
        execute on (implies ``supervise``); the pool's workers,
        backend choice and fault plan are reused across campaigns, so
        a long-lived caller (the scheduling service) pays spawn +
        probe + kernel warm-up once, not once per job.
    prepare:
        in-process runs only: a ``TreeInstance -> PreparedTree``
        provider replacing the per-group ``PreparedTree(inst.tree)``
        construction -- the service plugs its process-wide LRU in
        here. Results are unaffected (a PreparedTree is immutable).
    abort:
        a ``threading.Event``; once set, the run stops between
        scenarios (supervised) or work units (in-process / pooled)
        by raising :class:`~repro.analysis.supervisor.CampaignAborted`.
        Everything already emitted is in the checkpoint, so a resumed
        run continues exactly where the aborted one stopped.
    """
    instances = list(instances)
    groups = [campaign.scenarios_for(inst.name) for inst in instances]
    done = [0] * len(groups)
    loaded: list[list[ScenarioRecord | FailedRecord]] = [[] for _ in groups]

    ckstore: RecordStore | None = None
    if isinstance(store, RecordStore):
        ckstore = store
    elif checkpoint is not None:
        ckstore = open_store(checkpoint, backend=store or "auto")
    elif store not in (None, "auto"):
        raise ValueError(
            "store=... names a backend and therefore needs a checkpoint "
            "path; pass a RecordStore instance to omit the path"
        )

    if ckstore is not None:
        if resume and ckstore.exists():
            # Streaming prefix-verify: records are checked against the
            # expected scenario stream one at a time (never materialising
            # the checkpoint), then the store is truncated to the verified
            # prefix -- which also drops torn crash residue.
            expected = [(gi, sc) for gi, grp in enumerate(groups) for sc in grp]
            recovered = ckstore.recover()
            keep = 0
            for k, record in enumerate(recovered):
                if retry_failed and isinstance(record, FailedRecord):
                    break  # recompute from the first quarantined scenario
                if k >= len(expected):
                    total = k + 1 + sum(1 for _ in recovered)
                    raise ValueError(
                        f"checkpoint {ckstore.path!r} holds {total} records but "
                        f"the campaign expands to {len(expected)} scenarios; it "
                        "was not produced by this campaign"
                    )
                gi, sc = expected[k]
                if (record.tree, record.heuristic, record.p) != sc.key():
                    raise ValueError(
                        f"checkpoint {ckstore.path!r} diverges from this campaign at "
                        f"record {k}: found ({record.tree!r}, {record.heuristic!r}, "
                        f"p={record.p}), expected {sc.key()}"
                    )
                loaded[gi].append(record)
                done[gi] += 1
                keep = k + 1
            ckstore.truncate(keep)
        else:
            ckstore.reset()  # truncate: the stream restarts

    # Work units: (group index, remaining scenario slice); large trees
    # are sharded into several contiguous units of the same group.
    units: list[tuple[int, Sequence[Scenario]]] = []
    for gi, (inst, grp) in enumerate(zip(instances, groups)):
        rest = grp[done[gi] :]
        if not rest:
            continue
        shards = 1
        if workers > 1 and shard_nodes is not None and inst.tree.n >= shard_nodes:
            shards = min(workers, len(rest))
        for chunk in _split_slices(rest, shards):
            units.append((gi, chunk))

    computed: list[list[ScenarioRecord | FailedRecord]] = [[] for _ in groups]
    remaining_units = [0] * len(groups)
    for gi, _ in units:
        remaining_units[gi] += 1

    def consume(results: Iterable[list[ScenarioRecord]]) -> None:
        for (gi, _), recs in zip(units, results):
            if abort is not None and abort.is_set():
                raise CampaignAborted(
                    f"campaign aborted with {remaining_units[gi]} unit(s) "
                    f"of {instances[gi].name} outstanding"
                )
            computed[gi].extend(recs)
            if ckstore is not None:
                ckstore.append(recs)
            remaining_units[gi] -= 1
            if progress and remaining_units[gi] == 0:  # pragma: no cover - cosmetic
                print(f"  done {instances[gi].name} (n={instances[gi].tree.n})")

    if supervise or pool is not None:
        from .supervisor import run_supervised

        # Per-scenario dispatch: the units flatten back into the exact
        # campaign stream (sharding only splits, never reorders).
        tasks = [(gi, sc) for gi, chunk in units for sc in chunk]
        left = [len(grp) - done[gi] for gi, grp in enumerate(groups)]

        def emit(gi: int, record: ScenarioRecord | FailedRecord) -> None:
            computed[gi].append(record)
            if ckstore is not None:
                ckstore.append([record])
            left[gi] -= 1
            if progress and left[gi] == 0:  # pragma: no cover - cosmetic
                print(f"  done {instances[gi].name} (n={instances[gi].tree.n})")

        # Install a programmatic plan parent-side too, so checkpoint
        # appends (which happen in this process) see truncate faults.
        if fault_plan is not None:
            faults.install(fault_plan)
        try:
            if pool is not None:
                run_report = pool.run(
                    instances,
                    tasks,
                    validate=campaign.validate,
                    retries=retries,
                    timeout=timeout,
                    backoff=backoff,
                    shared_memory=shared_memory,
                    emit=emit,
                    abort=abort,
                )
            else:
                run_report = run_supervised(
                    instances,
                    tasks,
                    validate=campaign.validate,
                    backend=campaign.backend,
                    workers=max(1, workers),
                    retries=retries,
                    timeout=timeout,
                    backoff=backoff,
                    fault_plan=fault_plan,
                    shared_memory=shared_memory,
                    emit=emit,
                    abort=abort,
                )
        finally:
            if fault_plan is not None:
                faults.install(None)
        if report is not None:
            report.append(run_report)
    elif workers > 1 and units:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        if shared_memory:
            need = sorted({gi for gi, _ in units})
            shm, descriptors = _shm_pack([instances[gi] for gi in need])
            desc_of = dict(zip(need, descriptors))
            try:
                payloads = [
                    (
                        "shm",
                        shm.name,
                        desc_of[gi],
                        tuple(chunk),
                        campaign.validate,
                        megabatch,
                    )
                    for gi, chunk in units
                ]
                with ctx.Pool(processes=workers) as pool:
                    consume(pool.imap(_campaign_slice, payloads, chunksize=chunksize))
            finally:
                shm.close()
                shm.unlink()
        else:
            payloads = [
                (
                    "inst",
                    instances[gi],
                    tuple(chunk),
                    campaign.validate,
                    megabatch,
                )
                for gi, chunk in units
            ]
            with ctx.Pool(processes=workers) as pool:
                # imap (not imap_unordered): chunks complete out of order
                # but are *collected* in submission order, so the record
                # stream is byte-identical to the serial run.
                consume(pool.imap(_campaign_slice, payloads, chunksize=chunksize))
    else:
        # In-process: one preparation per tree, shared across its units.
        def run_serial():
            prepared_group = -1
            prepared = None
            for gi, chunk in units:
                if gi != prepared_group:
                    inst = instances[gi]
                    prepared = (
                        prepare(inst) if prepare is not None
                        else PreparedTree(inst.tree)
                    )
                    prepared_group = gi
                yield _scenario_records(
                    instances[gi].name,
                    prepared,
                    chunk,
                    campaign.validate,
                    megabatch,
                )

        consume(run_serial())

    if ckstore is not None:
        ckstore.finalize()  # columnar: seal the tail for pure-array reads
    records: list[ScenarioRecord | FailedRecord] = []
    for gi in range(len(groups)):
        records.extend(loaded[gi])
        records.extend(computed[gi])
    return records
