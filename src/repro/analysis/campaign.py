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

There are two ways to execute a grid, and they share that per-group
record generator: in process (``workers <= 1``), or on the supervised
worker pool of :mod:`repro.analysis.supervisor` (``workers > 1``,
``supervise=True`` or a live ``pool=``), which dispatches tree groups
as work units and adds crash/hang detection, retries and quarantine.

Execution properties, all property-tested:

* **Deterministic order.** Scenarios expand p-major then
  algorithm-major (then cap-major), matching the historical
  ``run_experiments`` stream; records are emitted in stream order, so
  in-process and supervised runs with any number of workers are
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro import registry
from repro.core.prepared import PreparedTree
from repro.core.simulator import simulate
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
# records of one tree group (in process, and inside supervised workers)
# ----------------------------------------------------------------------
def _scenario_records(
    name: str,
    prepared: PreparedTree,
    scenarios: Sequence[Scenario],
    validate: bool,
) -> Iterator[ScenarioRecord | Exception]:
    """Records of one scenario slice against one shared preparation.

    Yields, in slice order, one :class:`ScenarioRecord` per scenario --
    or the exception that scenario raised, so one failing scenario
    never hides the rest of the slice (the in-process run re-raises it,
    a supervised worker reports it and goes on).

    The sequential memory lower bound is computed once per tree and
    shared across every scenario, exactly as in the paper (the bound
    does not depend on ``p``), and every run reuses the prepared rank
    permutations and typed sweep columns. Every scenario whose
    algorithm registers a sweep spec is swept in **one batched kernel
    call** (see :func:`repro.core.engine.sweep_batch`); the rest -- the
    subtree-splitting family, sequential traversals -- run unbatched at
    their position in the slice.
    """
    from repro.core.engine import sweep_batch

    try:
        mem_lb = prepared.optimal().peak_memory
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
        outcomes: dict[int, Any] = {}
        if idxs:
            run = sweep_batch(prepared, specs, backend=backend)
            outcomes = dict(zip(idxs, run.outcomes))
    except Exception as exc:
        for _ in scenarios:
            yield exc
        return
    for i, sc in enumerate(scenarios):
        try:
            schedule = outcomes.get(i)
            if schedule is None:
                schedule = registry.run(sc.algorithm, prepared, sc.p, **dict(sc.params))
            elif isinstance(schedule, Exception):
                raise schedule
            result = simulate(schedule, validate=validate)
        except Exception as exc:
            yield exc
            continue
        yield ScenarioRecord(
            tree=name,
            n=prepared.n,
            p=sc.p,
            heuristic=sc.label,
            makespan=result.makespan,
            memory=result.peak_memory,
            memory_lb=mem_lb,
            makespan_lb=prepared.makespan_lower_bound(sc.p),
        )


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
    import json

    with open(path, "rb") as fh:
        data = fh.read()
    records: list[ScenarioRecord | FailedRecord] = []
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
        pos = nl + 1
    return records, pos


def run_campaign(
    instances: Iterable[TreeInstance],
    campaign: Campaign,
    *,
    workers: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    store: "str | RecordStore | None" = None,
    progress: bool = False,
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
        worker processes. With ``workers <= 1`` (and neither
        ``supervise`` nor ``pool``) the grid runs in this process;
        anything more runs on the supervised pool of
        :mod:`repro.analysis.supervisor`, one tree group per work
        unit. Any value yields the identical record stream.
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
        for ``.jsonl`` paths) or ``"columnar"`` (directory of npz
        column segments + JSONL tail; see :mod:`repro.analysis.store`),
        or a ready :class:`~repro.analysis.store.RecordStore` instance
        (then ``checkpoint`` may be omitted). Both backends honour the
        same crash-safe resume contract, and the record *stream* is
        identical across backends (property-tested) -- columnar runs
        pack back to byte-identical JSONL.
    progress:
        print one line per completed tree.
    supervise:
        run on the supervised pool even with one worker: a dedicated
        worker process with crash/hang detection, per-scenario retries
        with exponential backoff, quarantine of poison scenarios as
        :class:`FailedRecord` stream entries, and backend health
        probing with graceful degradation (c -> python). ``workers >
        1`` always runs supervised. The record stream -- and the
        checkpoint -- is byte-identical to the in-process run.
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
        scenarios (supervised) or tree groups (in-process) by raising
        :class:`~repro.analysis.supervisor.CampaignAborted`.
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

    computed: list[list[ScenarioRecord | FailedRecord]] = [[] for _ in groups]
    left = [len(grp) - done[gi] for gi, grp in enumerate(groups)]

    def emit(gi: int, records: list[ScenarioRecord | FailedRecord]) -> None:
        computed[gi].extend(records)
        if ckstore is not None:
            ckstore.append(records)
        left[gi] -= len(records)
        if progress and left[gi] == 0:  # pragma: no cover - cosmetic
            print(f"  done {instances[gi].name} (n={instances[gi].tree.n})")

    if workers <= 1 and not supervise and pool is None:
        # In process: one preparation and one megabatch per tree group.
        for gi, inst in enumerate(instances):
            rest = groups[gi][done[gi]:]
            if not rest:
                continue
            prepared = prepare(inst) if prepare is not None else PreparedTree(inst.tree)
            recs = []
            for out in _scenario_records(inst.name, prepared, rest, campaign.validate):
                if isinstance(out, Exception):
                    raise out
                recs.append(out)
            if abort is not None and abort.is_set():
                raise CampaignAborted(
                    f"campaign aborted with {inst.name} outstanding"
                )
            emit(gi, recs)
    else:
        from .supervisor import run_supervised

        tasks = [(gi, sc) for gi, grp in enumerate(groups) for sc in grp[done[gi]:]]
        # Install a programmatic plan parent-side too, so checkpoint
        # appends (which happen in this process) see truncate faults.
        if fault_plan is not None:
            faults.install(fault_plan)
        kwargs: dict[str, Any] = dict(
            validate=campaign.validate,
            retries=retries,
            timeout=timeout,
            backoff=backoff,
            emit=emit,
            abort=abort,
        )
        try:
            if pool is not None:
                run_report = pool.run(instances, tasks, **kwargs)
            else:
                run_report = run_supervised(
                    instances,
                    tasks,
                    backend=campaign.backend,
                    workers=max(1, workers),
                    fault_plan=fault_plan,
                    **kwargs,
                )
        finally:
            if fault_plan is not None:
                faults.install(None)
        if report is not None:
            report.append(run_report)

    if ckstore is not None:
        ckstore.finalize()  # columnar: seal the tail for pure-array reads
    records: list[ScenarioRecord | FailedRecord] = []
    for gi in range(len(groups)):
        records.extend(loaded[gi])
        records.extend(computed[gi])
    return records
