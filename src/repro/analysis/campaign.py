"""Declarative campaign grids: (instances x algorithms x p x cap factors).

The paper's whole experimental section is one shape of computation:
sweep a set of schedulers over a set of trees while varying the
processor count (and, for the memory-capped extension, the cap). A
:class:`Campaign` states that grid declaratively -- the paper's Table 1
grid is ``Campaign(algorithms=tuple(HEURISTICS))``, and every experiment
subcommand of :mod:`repro.cli` runs one -- and :func:`run_campaign`
expands it into scenarios, **groups them by tree**, and executes each
group against a single :class:`~repro.core.prepared.PreparedTree` -- so
the per-tree preparation (CSR counts, memory columns, the optimal
postorder, every priority-rank permutation) is paid once per tree
instead of once per scenario. Every algorithm in
:mod:`repro.registry` gets grid support for free: cap factors apply to
the algorithms that declare a ``cap_factor`` parameter.

On top of the grouping, each tree's engine-backed scenarios are swept
in **one megabatch kernel call** (:func:`repro.core.engine.sweep_batch`):
the stacked grid crosses the Python boundary once and the C kernel
sweeps it GIL-free, with bit-identical per-scenario results.

A grid runs on one of two runtimes, chosen by ``runtime=``: in this
process (``None``), or on a :class:`~repro.analysis.supervisor.
SupervisorPool`, which dispatches tree groups as work units to worker
processes and adds crash/hang detection, retries and a prompt abort.
Both share the per-group record generator and **one failure rule**: a
scenario that fails with a deterministic error (an infeasible cap, a
bad parameter) is settled as a :class:`FailedRecord` at its stream
position after one attempt; any other error is raised in process and
retried on the pool.

Execution properties, all property-tested:

* **Deterministic order.** Each tree's scenarios expand p-major, then
  algorithm, then cap factor; records are emitted tree by tree in
  stream order, so the records and the checkpoint bytes are the same
  on both runtimes and for any number of pool workers.
* **Resumable checkpoints.** With ``checkpoint=path`` every record is
  appended to a JSONL file (flushed per record; see
  :mod:`repro.analysis.store`). ``resume=True`` streams the file back,
  drops torn crash residue, verifies the prefix against the campaign's
  expected scenario stream, and only runs what is missing -- a resumed
  file is byte-for-byte identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro import registry
from repro.core.engine import MemoryCapError
from repro.core.prepared import PreparedTree
from repro.core.schedule import processor_count
from repro.core.simulator import simulate
from repro.testing import faults
from repro.workloads.dataset import TreeInstance, PROCESSOR_COUNTS

from .store import FailedRecord, JsonlStore, ScenarioRecord

if TYPE_CHECKING:
    from .supervisor import SupervisorPool

__all__ = ["Campaign", "Scenario", "run_campaign"]

#: errors that are a deterministic function of the scenario: another
#: attempt cannot change the outcome, so on either runtime the scenario
#: is settled at once as a :class:`FailedRecord` (see :func:`_failed`).
_DETERMINISTIC = (MemoryCapError, ValueError, TypeError, KeyError)


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
        processor of the ``p``-processor platform; ``repro run`` gives
        them ``processor_counts=(1,)``).
    processor_counts:
        the ``p`` sweep (default: the paper's five); each a positive
        integer (:func:`~repro.core.schedule.processor_count`).
    cap_factors:
        memory-cap sweep, as multiples of the sequential optimal peak;
        each a finite positive number (stored as ``float``, else
        ``ValueError``). Applied to every algorithm that declares a
        ``cap_factor`` parameter (``MemoryBounded``,
        ``MemoryAwareSubtrees``); other algorithms run once per ``p``
        regardless.
    validate:
        re-check schedule validity inside the simulator (slower).
    """

    algorithms: tuple[str, ...]
    processor_counts: tuple[int, ...] = PROCESSOR_COUNTS
    cap_factors: tuple[float, ...] = ()
    validate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "processor_counts",
            tuple(processor_count(p) for p in self.processor_counts),
        )
        caps = tuple(float(c) for c in self.cap_factors)
        bad = [c for c in caps if not 0 < c < math.inf]
        if bad:
            raise ValueError(
                f"cap factors must be finite and positive, got {bad[0]!r}"
            )
        object.__setattr__(self, "cap_factors", caps)

    def scenarios_for(self, tree_name: str) -> list[Scenario]:
        """Expand the grid for one tree (p-major, algorithm-minor,
        cap-innermost -- the historical record order)."""
        out: list[Scenario] = []
        for p in self.processor_counts:
            for name in self.algorithms:
                algo = registry.get(name)  # fails fast on unknown names
                if self.cap_factors and "cap_factor" in algo.params:
                    for factor in self.cap_factors:
                        out.append(
                            Scenario(
                                tree=tree_name,
                                algorithm=name,
                                p=p,
                                params=(("cap_factor", factor),),
                                label=f"{name}@cap{factor:g}",
                            )
                        )
                else:
                    out.append(
                        Scenario(
                            tree=tree_name,
                            algorithm=name,
                            p=p,
                            label=name,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# records of one tree group (in process, and inside supervised workers)
# ----------------------------------------------------------------------
def _failed(sc: Scenario, n: int, error: str, attempts: int = 1) -> FailedRecord:
    """The record that settles a failed scenario at its stream position:
    after one attempt for a :data:`_DETERMINISTIC` error (both runtimes),
    after the last retry for any other failure (the supervised pool)."""
    return FailedRecord(
        tree=sc.tree, n=n, p=sc.p, heuristic=sc.label, error=error, attempts=attempts
    )


def _scenario_records(
    name: str,
    prepare: Callable[[], PreparedTree],
    scenarios: Sequence[Scenario],
    validate: bool,
) -> Iterator[ScenarioRecord | Exception]:
    """Records of one scenario slice against one shared preparation.

    Yields, in slice order, one :class:`ScenarioRecord` per scenario --
    or the exception that scenario raised, so one failing scenario
    never hides the rest of the slice. When ``prepare()`` (the tree's
    :class:`PreparedTree`) or the batched sweep fails, every scenario of
    the slice yields that exception.

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
        prepared = prepare()
        mem_lb = prepared.optimal().peak_memory
        specs = []
        idxs: list[int] = []
        for i, sc in enumerate(scenarios):
            spec = registry.get(sc.algorithm).batch_spec(prepared, sc.p, **dict(sc.params))
            if spec is not None:
                specs.append(spec)
                idxs.append(i)
        outcomes: dict[int, Any] = {}
        if idxs:
            outcomes = dict(zip(idxs, sweep_batch(prepared, specs).outcomes))
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


def run_campaign(
    instances: Iterable[TreeInstance],
    campaign: Campaign,
    *,
    runtime: "SupervisorPool | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
    retry_failed: bool = False,
    progress: bool = False,
) -> list[ScenarioRecord | FailedRecord]:
    """Execute a campaign grid, optionally resuming a checkpoint.

    A scenario that raises a deterministic error (``MemoryCapError``
    -- an infeasible cap -- ``ValueError``, ``TypeError``, ``KeyError``)
    becomes a :class:`FailedRecord` (``error="<Type>: <message>"``,
    ``attempts=1``) at its stream position, on either runtime. The
    records and the checkpoint bytes do not depend on ``runtime``.

    Parameters
    ----------
    instances, campaign:
        the trees and the declarative grid to run over them.
    runtime:
        ``None`` runs the grid in this process, one tree group after
        the other; any other error than a deterministic one is raised.
        A :class:`~repro.analysis.supervisor.SupervisorPool` runs it on
        the pool's workers, one tree group per work unit, with the
        pool's retry policy for crashes, timeouts and other errors,
        its ``abort`` event, and its fault plan (also installed in this
        process while the run lasts, so checkpoint appends see
        truncate faults); the pool's ``report`` then holds the run's
        :class:`~repro.analysis.supervisor.RunReport`. A pool is reused
        across campaigns: a long-lived caller (the scheduling service)
        pays spawn + probe + kernel warm-up once, not once per job.
    checkpoint:
        ``.jsonl`` path receiving every record as soon as it exists
        (flushed per record). Without ``resume`` the file is truncated
        first.
    resume:
        continue a previous run of the *same* campaign from
        ``checkpoint``: completed records are loaded (a truncated final
        line is dropped and overwritten), verified against the expected
        scenario stream, and only missing scenarios are executed. The
        finished file is byte-identical to an uninterrupted run. A
        complete line that is not a record raises ``ValueError``.
    retry_failed:
        on resume, do not skip failed scenarios: the checkpoint is
        truncated at the first :class:`FailedRecord` and everything
        from there is recomputed, healing the file to byte-identity
        with a fault-free run (when the fault is gone).
    progress:
        print one ``  done <tree> (n=...)`` line per completed tree on
        stderr.
    """
    instances = list(instances)
    groups = [campaign.scenarios_for(inst.name) for inst in instances]
    done = [0] * len(groups)
    loaded: list[list[ScenarioRecord | FailedRecord]] = [[] for _ in groups]

    ckstore = JsonlStore(checkpoint) if checkpoint is not None else None

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
                    break  # recompute from the first failed scenario
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
        if progress and left[gi] == 0:
            print(f"  done {instances[gi].name} (n={instances[gi].tree.n})", file=sys.stderr)

    if runtime is None:
        # In process: one preparation and one megabatch per tree group.
        seq = 0  # dispatch-stream index, as in the supervised workers
        for gi, inst in enumerate(instances):
            rest = groups[gi][done[gi]:]
            if not rest:
                continue
            recs = []
            outs = _scenario_records(
                inst.name, lambda: PreparedTree(inst.tree), rest, campaign.validate
            )
            for sc in rest:
                faults.maybe_slow(faults.scenario_key(sc.tree, sc.label, sc.p), seq, 0)
                seq += 1
                out = next(outs)
                if isinstance(out, Exception):
                    if not isinstance(out, _DETERMINISTIC):
                        raise out
                    out = _failed(sc, inst.tree.n, f"{type(out).__name__}: {out}")
                recs.append(out)
            emit(gi, recs)
    else:
        tasks = [(gi, sc) for gi, grp in enumerate(groups) for sc in grp[done[gi]:]]
        # Install a programmatic plan parent-side too, so checkpoint
        # appends (which happen in this process) see truncate faults.
        plan = runtime.fault_plan
        if plan is not None:
            faults.install(plan)
        try:
            runtime.run(instances, tasks, validate=campaign.validate, emit=emit)
        finally:
            if plan is not None:
                faults.install(None)

    records: list[ScenarioRecord | FailedRecord] = []
    for gi in range(len(groups)):
        records.extend(loaded[gi])
        records.extend(computed[gi])
    return records
