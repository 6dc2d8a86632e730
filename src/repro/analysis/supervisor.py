"""Supervised campaign execution: a fault-tolerant worker pool.

The plain pool path of :func:`repro.analysis.campaign.run_campaign`
trusts its workers: a crashed or wedged process hangs the whole
``pool.imap`` collection loop and loses every record after the last
flushed chunk. This module replaces that trust with supervision. Each
worker is a dedicated ``multiprocessing.Process`` with its **own task
queue** and a shared result queue; the supervisor assigns exactly one
scenario to a worker at a time, so when a worker dies its in-flight
casualty is known precisely, and when it wedges past the per-scenario
timeout it is killed and its scenario re-queued.

Failure policy
--------------
* **Crashes / timeouts / environmental errors** (a worker OOM-killed,
  a ``MemoryError``, an injected ``os._exit``) charge one attempt and
  the scenario is retried with bounded exponential backoff
  (``backoff * 2**(attempt-1)`` seconds) on the next free worker.
* **Deterministic scheduler errors** (``MemoryCapError`` -- an
  infeasible cap -- ``ValueError``/``TypeError``/``KeyError``) would
  fail identically on every retry and are quarantined immediately.
* A scenario that exhausts ``retries + 1`` attempts is **quarantined**:
  a structured :class:`~repro.analysis.experiments.FailedRecord` takes
  its position in the record stream (and the checkpoint store --
  JSONL or columnar, written parent-side by the campaign's emit), so a
  resumed campaign deterministically skips it -- or heals it with
  ``retry_failed=True``.

Determinism
-----------
Schedulers are deterministic and all sweep backends are bit-identical,
so a scenario's record does not depend on which worker (or which
attempt) produced it. The supervisor exploits this: results are
accepted even from workers that were already killed for a timeout, and
records are emitted strictly in the campaign's scenario-stream order
through a write cursor -- which is what makes a supervised run's
checkpoint **byte-identical** to the plain pool's, faults or not
(property-tested by the chaos suite).

Backend degradation
-------------------
The first worker probes the backend chain at startup
(:func:`repro.core.engine.probe_backend`): the requested backend is
health-checked with a real two-node sweep and, on failure, the chain
degrades c -> python. The decision is cached on the pool and
handed to every later spawn (respawns after a crash, extra workers,
workers of later runs), which therefore skip the probe entirely; each
worker's backend (with every skipped backend and its reason) is
recorded in the :class:`RunReport`, and pinned into every scenario of
algorithms that declare a ``backend`` parameter.

Persistent pools
----------------
:class:`SupervisorPool` keeps its workers alive across runs, which is
what a long-lived caller (the scheduling service) needs: tree
preparation, backend probing and kernel compilation are paid once per
worker, not once per job. Every ``run()`` opens a new *epoch*; workers
are told via a ``("begin", epoch, ...)`` control message (which also
clears their per-run prepared-tree cache, since group indices are
per-run), every task and result message carries the epoch, and the
supervisor drops any result tagged with a stale epoch -- so a run
aborted mid-flight can never leak records into the next one.
:func:`run_supervised` remains the one-shot wrapper: build a pool, run
once, tear it down.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import registry
from repro.core.engine import MemoryCapError, probe_backend
from repro.core.prepared import PreparedTree
from repro.core.simulator import simulate
from repro.core.tree import TaskTree
from repro.testing import faults
from repro.workloads.dataset import TreeInstance

from .experiments import FailedRecord, ScenarioRecord

__all__ = [
    "AttemptLog",
    "CampaignAborted",
    "RunReport",
    "ScenarioReport",
    "SupervisorPool",
    "run_supervised",
]

#: errors that are a deterministic function of the scenario: retrying
#: cannot change the outcome, so the scenario is quarantined at once.
_DETERMINISTIC = (MemoryCapError, ValueError, TypeError, KeyError)

#: how long a worker gets from spawn to its "ready" message before the
#: supervisor declares it stillborn (first startup may compile the C
#: kernel, so this is generous).
_READY_TIMEOUT = 300.0


class CampaignAborted(RuntimeError):
    """A run's ``abort`` event was set: the run stopped between
    scenarios. Everything emitted before the abort is already in the
    checkpoint, so a resumed run continues exactly where this one
    stopped."""


# ----------------------------------------------------------------------
# run report
# ----------------------------------------------------------------------
@dataclass
class AttemptLog:
    """One attempt at one scenario, as the supervisor saw it."""

    attempt: int
    worker: int
    status: str  # "ok" | "error" | "crash" | "timeout"
    detail: str = ""
    seconds: float = 0.0


@dataclass
class ScenarioReport:
    """Per-scenario attempt history (``key`` is ``"tree|label|p"``)."""

    key: str
    status: str = "ok"  # "ok" | "failed"
    attempts: list[AttemptLog] = field(default_factory=list)


@dataclass
class RunReport:
    """What the supervised run did beyond the record stream itself."""

    workers: int = 0
    backends: list[tuple[int, str, list[tuple[str, str]]]] = field(
        default_factory=list
    )  # (worker id, chosen backend, skipped [(backend, reason), ...])
    scenarios: list[ScenarioReport] = field(default_factory=list)
    respawns: int = 0
    probes: int = 0  # workers that ran a live backend probe this run
    elapsed: float = 0.0

    @property
    def quarantined(self) -> list[ScenarioReport]:
        return [s for s in self.scenarios if s.status == "failed"]

    @property
    def retried(self) -> list[ScenarioReport]:
        return [s for s in self.scenarios if len(s.attempts) > 1]

    @property
    def fallbacks(self) -> list[tuple[int, str, list[tuple[str, str]]]]:
        """Workers that did not get their first-choice backend."""
        return [row for row in self.backends if row[2]]

    def summary(self) -> str:
        """A human-readable digest for ``repro campaign --report``."""
        lines = [
            f"supervised run: {len(self.scenarios)} scenarios, "
            f"{self.workers} worker(s), {self.respawns} respawn(s), "
            f"{self.elapsed:.2f}s"
        ]
        for wid, chosen, skipped in self.backends:
            note = "".join(f"; skipped {b}: {why}" for b, why in skipped)
            lines.append(f"  worker {wid}: backend {chosen}{note}")
        for s in self.retried:
            trail = ", ".join(a.status for a in s.attempts)
            lines.append(f"  retried {s.key}: {trail}")
        for s in self.quarantined:
            last = s.attempts[-1].detail if s.attempts else ""
            lines.append(
                f"  quarantined {s.key} after {len(s.attempts)} attempt(s): {last}"
            )
        if not self.retried and not self.quarantined:
            lines.append("  no retries, no quarantines")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _prepared_for(
    transport: tuple, gi: int, cache: "OrderedDict[int, tuple]"
) -> tuple[PreparedTree, str, float]:
    """The (prepared tree, name, memory lower bound) of group ``gi``,
    cached per worker (campaign streams are grouped by tree, so a tiny
    LRU keeps the preparation cost at one per (tree, worker))."""
    ent = cache.get(gi)
    if ent is None:
        if transport[0] == "shm":
            from .campaign import _shm_attach, _shm_views

            _, shm_name, descriptors = transport
            d = descriptors[gi]
            shm = _shm_attach(shm_name)
            views = _shm_views(shm.buf, d["base"], d["n"])
            for v in views:  # shared across workers: never writable
                v.setflags(write=False)
            prepared = PreparedTree(TaskTree(*views))
            name = d["name"]
        else:
            inst = transport[1][gi]
            prepared = PreparedTree(inst.tree)
            name = inst.name
        ent = (prepared, name, prepared.optimal().peak_memory)
        cache[gi] = ent
        while len(cache) > 2:
            cache.popitem(last=False)
    else:
        cache.move_to_end(gi)
    return ent

def _worker_main(
    wid: int,
    task_q,
    result_q,
    backend_request: str | None,
    plan_json: str | None,
    probed: tuple | None,
) -> None:
    """Supervised worker: probe (or adopt the pool's cached probe),
    then run scenarios until the ``None`` sentinel.

    The task queue interleaves ``("begin", epoch, transport, validate)``
    control messages -- one per run, resetting the prepared cache --
    with ``("task", epoch, seq, gi, sc, attempt)`` assignments. Every
    message is ``put`` *before* the next blocking ``get`` on the task
    queue, and the supervisor only assigns the next scenario after
    consuming the previous result -- so an injected crash (which fires
    before any message of its scenario) can never tear a message of an
    earlier scenario out of the queue's feeder thread.
    """
    faults.install(faults.FaultPlan.from_json(plan_json) if plan_json else None)
    if probed is not None:
        chosen, skipped = probed[0], [tuple(s) for s in probed[1]]
        did_probe = False
    else:
        try:
            chosen, skipped = probe_backend(backend_request)
        except Exception as exc:  # no usable backend at all: abort the run
            result_q.put(("fatal", wid, f"{type(exc).__name__}: {exc}"))
            return
        did_probe = True
    result_q.put(("ready", wid, chosen, skipped, did_probe))
    epoch = 0
    transport: tuple = ("inst", [])
    validate = False
    cache: "OrderedDict[int, tuple]" = OrderedDict()
    parent = os.getppid()
    while True:
        try:
            msg = task_q.get(timeout=5.0)
        except queue_mod.Empty:
            # Reparented means the supervisor is gone (e.g. SIGKILLed
            # mid-run). Exit instead of lingering as an orphan holding
            # inherited fds -- a killed server's port must free up for
            # the restarted one.
            if os.getppid() != parent:
                return
            continue
        if msg is None:
            return
        if msg[0] == "begin":
            _, epoch, transport, validate = msg
            cache.clear()  # group indices are per-run
            continue
        _, ep, seq, gi, sc, attempt = msg
        key = faults.scenario_key(sc.tree, sc.label, sc.p)
        faults.maybe_crash(key, seq, attempt)
        result_q.put(("start", wid, ep, seq, attempt))
        faults.maybe_slow(key, seq, attempt)
        t0 = time.monotonic()
        try:
            prepared, name, mem_lb = _prepared_for(transport, gi, cache)
            params = registry.apply_backend(sc.algorithm, dict(sc.params), chosen)
            schedule = registry.run(sc.algorithm, prepared, sc.p, **params)
            result = simulate(schedule, validate=validate)
            record = ScenarioRecord(
                tree=name,
                n=prepared.n,
                p=sc.p,
                heuristic=sc.label,
                makespan=result.makespan,
                memory=result.peak_memory,
                memory_lb=mem_lb,
                makespan_lb=prepared.makespan_lower_bound(sc.p),
            )
            result_q.put(
                ("ok", wid, ep, seq, attempt, record, time.monotonic() - t0)
            )
        except Exception as exc:
            result_q.put(
                (
                    "err",
                    wid,
                    ep,
                    seq,
                    attempt,
                    f"{type(exc).__name__}: {exc}",
                    isinstance(exc, _DETERMINISTIC),
                    time.monotonic() - t0,
                )
            )


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = (
        "wid",
        "proc",
        "task_q",
        "ready",
        "busy",
        "deadline",
        "timed_out",
        "born",
        "chosen",
        "skipped",
    )

    def __init__(self, wid: int, proc, task_q, now: float) -> None:
        self.wid = wid
        self.proc = proc
        self.task_q = task_q
        self.ready = False
        self.busy: int | None = None  # seq currently assigned
        self.deadline: float | None = None
        self.timed_out = False
        self.born = now
        self.chosen: str | None = None
        self.skipped: list[tuple[str, str]] = []


class SupervisorPool:
    """A persistent supervised worker pool, reusable across runs.

    Workers survive between :meth:`run` calls, so a sequence of runs
    (the scheduling service's job queue) pays spawn + backend probe +
    kernel warm-up once per worker rather than once per run. The fault
    plan is fixed at construction (``fault_plan=None`` adopts the
    process's installed plan, e.g. from ``REPRO_FAULT_PLAN``) and is
    re-installed into every respawned worker. Call :meth:`close` (or
    use the pool as a context manager) to tear the workers down.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        backend: str | None = None,
        fault_plan: "faults.FaultPlan | None" = None,
        poll: float = 0.05,
    ) -> None:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.workers = max(1, workers)
        self.backend = backend
        self.poll = poll
        plan = fault_plan if fault_plan is not None else faults.active_plan()
        self._plan_json = plan.to_json() if plan is not None else None
        # SimpleQueue, deliberately: a regular mp.Queue sends through a
        # background feeder thread that holds the queue's shared write
        # lock while flushing -- an injected os._exit in the worker's
        # main thread can kill the process at the exact instant its
        # feeder holds that lock, leaking the semaphore and wedging
        # every later worker's messages (a respawn's "ready" included).
        # SimpleQueue writes synchronously in the calling thread, and a
        # single-threaded worker can only crash *between* puts.
        self._result_q = ctx.SimpleQueue()
        self._pool: list[_Worker] = []
        self._spawned = 0  # lifetime spawn counter (worker ids)
        self._epoch = 0
        self._probed: tuple | None = None  # (chosen, ((backend, why), ...))
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "SupervisorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Send sentinels, join the workers, drop the queues."""
        if self._closed:
            return
        self._closed = True
        for w in self._pool:
            if w.proc.is_alive():
                try:
                    w.task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + 2.0
        for w in self._pool:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():  # pragma: no cover - stragglers
                w.proc.kill()
                w.proc.join()
            w.task_q.close()
            w.task_q.cancel_join_thread()
        self._pool = []
        self._result_q.close()

    def _spawn(self) -> _Worker:
        wid = self._spawned
        self._spawned += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                task_q,
                self._result_q,
                self.backend,
                self._plan_json,
                self._probed,
            ),
            daemon=True,
        )
        proc.start()
        return _Worker(wid, proc, task_q, time.monotonic())

    # -- one run --------------------------------------------------------
    def run(
        self,
        instances: Sequence[TreeInstance],
        tasks: Sequence[tuple[int, Any]],
        *,
        validate: bool = False,
        retries: int = 2,
        timeout: float | None = None,
        backoff: float = 0.25,
        shared_memory: bool = False,
        emit: Callable[[int, Any], None],
        abort=None,
    ) -> RunReport:
        """Run ``tasks`` (a ``(group index, Scenario)`` stream) supervised.

        ``emit(gi, record)`` is called once per scenario **in stream
        order** with a :class:`ScenarioRecord` or (for quarantined
        scenarios) a :class:`FailedRecord`. ``abort`` is an optional
        ``threading.Event``; once set, the run raises
        :class:`CampaignAborted` at the next loop turn (in-flight
        workers finish their scenario in the background and the epoch
        filter discards the stale results). Returns the
        :class:`RunReport`. Raises ``RuntimeError`` if no worker can
        find a usable backend or the respawn budget is exhausted.
        """
        if self._closed:
            raise RuntimeError("SupervisorPool is closed")
        t_run = time.monotonic()
        n = len(tasks)
        self._epoch += 1
        epoch = self._epoch
        workers = self.workers
        poll = self.poll

        report = RunReport(workers=workers)
        report.scenarios = [
            ScenarioReport(key=faults.scenario_key(sc.tree, sc.label, sc.p))
            for _, sc in tasks
        ]

        # Scenario state, all indexed by stream position.
        outcome: list[Any] = [None] * n  # ScenarioRecord | FailedRecord
        attempts_used = [0] * n
        eligible = [0.0] * n  # monotonic time a retry becomes runnable
        cursor = 0  # next seq to emit

        shm = None
        if shared_memory and n:
            from .campaign import _shm_pack

            need = sorted({gi for gi, _ in tasks})
            shm, descriptors = _shm_pack([instances[gi] for gi in need])
            transport: tuple = ("shm", shm.name, dict(zip(need, descriptors)))
        else:
            transport = ("inst", list(instances))
        begin = ("begin", epoch, transport, validate)

        spawned_this_run = 0
        max_spawns = workers + n * (retries + 1) + 8

        def spawn() -> _Worker:
            nonlocal spawned_this_run
            if spawned_this_run >= max_spawns:
                raise RuntimeError(
                    f"supervised run exceeded its respawn budget ({max_spawns} "
                    "worker spawns): workers are dying faster than scenarios "
                    "can be charged for it"
                )
            spawned_this_run += 1
            w = self._spawn()
            w.task_q.put(begin)
            return w

        def charge(w: _Worker, status: str, detail: str, seconds: float = 0.0) -> None:
            """Charge the worker's in-flight scenario with a failed attempt."""
            seq = w.busy
            w.busy = None
            w.deadline = None
            if seq is None or outcome[seq] is not None:
                return  # a stale casualty: the scenario already has a result
            attempts_used[seq] += 1
            report.scenarios[seq].attempts.append(
                AttemptLog(attempts_used[seq] - 1, w.wid, status, detail, seconds)
            )
            deterministic = status == "error" and detail.startswith("_det:")
            if deterministic:
                detail = detail[len("_det:"):]
                report.scenarios[seq].attempts[-1].detail = detail
            now = time.monotonic()
            if deterministic or attempts_used[seq] > retries:
                gi, sc = tasks[seq]
                outcome[seq] = FailedRecord(
                    tree=sc.tree,
                    n=instances[gi].tree.n,
                    p=sc.p,
                    heuristic=sc.label,
                    error=detail,
                    attempts=attempts_used[seq],
                )
                report.scenarios[seq].status = "failed"
            else:
                eligible[seq] = now + backoff * (2 ** (attempts_used[seq] - 1))

        result_q = self._result_q
        pool = self._pool
        try:
            # Re-enlist the survivors of previous runs and top the pool
            # up; every live worker gets this run's "begin" first.
            pool = [w for w in pool if w.proc.is_alive()]
            self._pool = pool
            now = time.monotonic()
            for w in pool:
                w.busy = None
                w.deadline = None
                w.timed_out = False
                w.born = now  # a held-over worker is not stillborn
                w.task_q.put(begin)
                if w.ready:  # its "ready" was consumed by an earlier run
                    report.backends.append((w.wid, w.chosen, list(w.skipped)))
            while len(pool) < min(workers, n):
                pool.append(spawn())

            next_probe = 0  # lowest seq that might still need dispatching
            while cursor < n:
                if abort is not None and abort.is_set():
                    raise CampaignAborted(
                        f"run aborted after {cursor}/{n} scenario(s)"
                    )
                now = time.monotonic()

                # 1. assign runnable scenarios to ready idle workers
                idle = [w for w in pool if w.ready and w.busy is None]
                if idle:
                    in_flight = {w.busy for w in pool if w.busy is not None}
                    seq = next_probe
                    for w in idle:
                        while seq < n and (
                            outcome[seq] is not None
                            or seq in in_flight
                            or eligible[seq] > now
                        ):
                            seq += 1
                        if seq >= n:
                            break
                        gi, sc = tasks[seq]
                        w.busy = seq
                        w.deadline = None  # armed on the "start" message
                        w.timed_out = False
                        w.task_q.put(("task", epoch, seq, gi, sc, attempts_used[seq]))
                        in_flight.add(seq)
                        seq += 1
                    # advance the probe past the settled prefix only
                    while next_probe < n and outcome[next_probe] is not None:
                        next_probe += 1

                # 2. drain the result queue (wait one poll tick, slurp)
                msgs = []
                if result_q.empty():
                    time.sleep(poll)
                while not result_q.empty():
                    msgs.append(result_q.get())
                by_wid = {w.wid: w for w in pool}
                for msg in msgs:
                    kind, wid = msg[0], msg[1]
                    w = by_wid.get(wid)
                    if kind == "fatal":
                        raise RuntimeError(f"worker {wid}: {msg[2]}")
                    if kind == "ready":
                        _, _, chosen, skipped, did_probe = msg
                        if did_probe:
                            report.probes += 1
                            if self._probed is None:
                                # later spawns skip the two-node probe
                                self._probed = (chosen, tuple(map(tuple, skipped)))
                        report.backends.append((wid, chosen, list(skipped)))
                        if w is not None:
                            w.ready = True
                            w.chosen = chosen
                            w.skipped = list(skipped)
                        continue
                    ep = msg[2]
                    if ep != epoch:
                        continue  # stale result from an aborted earlier run
                    if kind == "start":
                        _, _, _, seq, attempt = msg
                        if w is not None and w.busy == seq and timeout is not None:
                            w.deadline = time.monotonic() + timeout
                    elif kind == "ok":
                        _, _, _, seq, attempt, record, seconds = msg
                        if outcome[seq] is None:  # accept even from killed workers
                            outcome[seq] = record
                            attempts_used[seq] = attempt + 1
                            report.scenarios[seq].attempts.append(
                                AttemptLog(attempt, wid, "ok", "", seconds)
                            )
                        if w is not None and w.busy == seq:
                            w.busy = None
                            w.deadline = None
                    elif kind == "err":
                        _, _, _, seq, attempt, detail, deterministic, seconds = msg
                        if w is not None and w.busy == seq:
                            charge(
                                w,
                                "error",
                                ("_det:" + detail) if deterministic else detail,
                                seconds,
                            )

                # 3. wedged workers: past their per-scenario deadline -> kill
                now = time.monotonic()
                for w in pool:
                    if w.deadline is not None and now > w.deadline and w.proc.is_alive():
                        w.timed_out = True
                        w.proc.kill()

                # 4. dead workers: charge the in-flight casualty, respawn
                for i, w in enumerate(pool):
                    if w.proc.is_alive():
                        if not w.ready and now - w.born > _READY_TIMEOUT:
                            raise RuntimeError(
                                f"worker {w.wid} produced no ready message within "
                                f"{_READY_TIMEOUT:.0f}s"
                            )
                        continue
                    if w.timed_out:
                        charge(w, "timeout", f"exceeded {timeout:g}s; worker killed")
                    else:
                        code = w.proc.exitcode
                        charge(w, "crash", f"worker died (exit code {code})")
                    w.proc.join()
                    w.task_q.close()
                    w.task_q.cancel_join_thread()
                    remaining = sum(1 for o in outcome if o is None)
                    live = sum(1 for ww in pool if ww.proc.is_alive())
                    if remaining > 0 and live < min(workers, remaining):
                        pool[i] = spawn()
                        report.respawns += 1
                    else:
                        pool[i] = _Worker(w.wid, w.proc, w.task_q, now)  # tombstone

                pool = [w for w in pool if w.proc.is_alive()]
                self._pool = pool
                if not pool and any(o is None for o in outcome):
                    pool.append(spawn())
                    report.respawns += 1

                # 5. advance the write cursor: emit settled prefix in order
                while cursor < n and outcome[cursor] is not None:
                    emit(tasks[cursor][0], outcome[cursor])
                    cursor += 1
        finally:
            self._pool = pool
            if shm is not None:
                # Mappings workers still hold stay valid after unlink
                # (POSIX); their cached views are dropped at the next
                # run's "begin" or at pool close.
                shm.close()
                shm.unlink()

        report.elapsed = time.monotonic() - t_run
        return report


def run_supervised(
    instances: Sequence[TreeInstance],
    tasks: Sequence[tuple[int, Any]],
    *,
    validate: bool = False,
    backend: str | None = None,
    workers: int = 1,
    retries: int = 2,
    timeout: float | None = None,
    backoff: float = 0.25,
    fault_plan: "faults.FaultPlan | None" = None,
    shared_memory: bool = False,
    emit: Callable[[int, Any], None],
    poll: float = 0.05,
    abort=None,
) -> RunReport:
    """One-shot supervised run: build a pool, run once, tear it down.

    See :meth:`SupervisorPool.run` for the contract.
    """
    pool = SupervisorPool(
        workers=workers, backend=backend, fault_plan=fault_plan, poll=poll
    )
    try:
        return pool.run(
            instances,
            tasks,
            validate=validate,
            retries=retries,
            timeout=timeout,
            backoff=backoff,
            shared_memory=shared_memory,
            emit=emit,
            abort=abort,
        )
    finally:
        pool.close()
