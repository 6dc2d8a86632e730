"""Supervised campaign execution: the fault-tolerant worker pool.

Every multi-process campaign runs here: :func:`repro.analysis.campaign.
run_campaign` stays in process for ``workers <= 1`` and hands anything
else to a :class:`SupervisorPool`. Each worker is a dedicated
``multiprocessing.Process`` with its **own task queue** and its own
result pipe. The supervisor hands a worker one **work
unit** at a time -- a tree group of the scenario stream, prepared once
and swept in one megabatch by the same record generator as the
in-process path -- and the worker reports every scenario of the unit
in order. So when a worker dies, the scenario it was on is known
exactly, and when it wedges past the per-scenario timeout it is killed
and the unit's unfinished scenarios are re-queued.

Work units
----------
A unit is a maximal run of one tree in the stream. Only when fewer
trees than workers remain is the next tree split into ``workers``
contiguous units, so a short tail (or a single large tree) still keeps
every worker busy. After a crash or timeout, the unit's first
unfinished scenario is charged one attempt, and each of the unit's
other unfinished scenarios is re-dispatched as a unit of its own,
without a charge. Attempts, quarantine and the fault plan's
``(scenario, index, attempt)`` matching therefore stay exact per
scenario.

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
attempt) produced it. Records are emitted strictly in the campaign's
scenario-stream order through a write cursor -- which is what makes a
supervised run's checkpoint **byte-identical** to the in-process one,
faults or not (property-tested by the chaos suite).

Waiting
-------
The supervisor never sleeps: it blocks in
``multiprocessing.connection.wait`` on every worker's result pipe and
process sentinel, so a result or a death wakes it at once.
The wait times out at the earliest worker deadline, retry eligibility
or ready timeout, and at most after :data:`_ABORT_CHECK` seconds, so an
``abort`` event set by another thread is seen promptly.

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

import itertools
import os
import queue as queue_mod
import select
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro import registry
from repro.core.engine import MemoryCapError, probe_backend
from repro.core.prepared import PreparedTree
from repro.testing import faults
from repro.workloads.dataset import TreeInstance

from .experiments import FailedRecord

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

#: longest single wait of the supervisor loop, so that an ``abort``
#: event set from another thread is noticed within this many seconds.
_ABORT_CHECK = 0.05


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
    probes: int = 0  # workers spawned this run that probe the backends
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
    inst: TreeInstance, gi: int, cache: "OrderedDict[int, PreparedTree]"
) -> PreparedTree:
    """The prepared tree of group ``gi``, cached per worker (a unit is
    one group, and a split or re-dispatched group comes back in pieces,
    so a tiny LRU keeps the preparation cost at one per (tree, worker))."""
    prepared = cache.get(gi)
    if prepared is None:
        prepared = PreparedTree(inst.tree)
        prepared.optimal()  # fail here, not halfway through the unit
        cache[gi] = prepared
        while len(cache) > 2:
            cache.popitem(last=False)
    else:
        cache.move_to_end(gi)
    return prepared


def _worker_main(
    wid: int,
    task_q,
    results,
    backend_request: str | None,
    plan_json: str | None,
    probed: tuple | None,
) -> None:
    """Supervised worker: probe (or adopt the pool's cached probe),
    then run work units until the ``None`` sentinel.

    The task queue interleaves ``("begin", epoch, validate, timed)``
    control messages -- one per run, resetting the prepared cache --
    with ``("task", epoch, gi, instance, seqs, scenarios, attempts)``
    units. Each scenario of a unit sends ``ok`` or ``err`` (preceded by
    ``start`` when the run is ``timed``, which arms its deadline), in
    stream order, each written synchronously to the worker's own pipe:
    an injected crash (which fires before any message of its scenario)
    can only land *between* two messages, never tear one.
    """
    from .campaign import _scenario_records

    put = results.send

    faults.install(faults.FaultPlan.from_json(plan_json) if plan_json else None)
    if probed is not None:
        chosen, skipped = probed[0], [tuple(s) for s in probed[1]]
        did_probe = False
    else:
        try:
            chosen, skipped = probe_backend(backend_request)
        except Exception as exc:  # no usable backend at all: abort the run
            put(("fatal", wid, f"{type(exc).__name__}: {exc}"))
            return
        did_probe = True
    put(("ready", wid, chosen, skipped, did_probe))
    epoch = 0
    validate = timed = False
    cache: "OrderedDict[int, PreparedTree]" = OrderedDict()
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
            _, epoch, validate, timed = msg
            cache.clear()  # group indices are per-run
            continue
        _, ep, gi, inst, seqs, scenarios, attempts = msg
        try:
            pinned = [
                replace(sc, params=tuple(
                    registry.apply_backend(sc.algorithm, dict(sc.params), chosen).items()
                ))
                for sc in scenarios
            ]
            prepared = _prepared_for(inst, gi, cache)
        except Exception as exc:
            outs = itertools.repeat(exc)
        else:
            outs = _scenario_records(inst.name, prepared, pinned, validate)
        for seq, sc, attempt in zip(seqs, scenarios, attempts):
            key = faults.scenario_key(sc.tree, sc.label, sc.p)
            faults.maybe_crash(key, seq, attempt)
            if timed:
                put(("start", wid, ep, seq))
            faults.maybe_slow(key, seq, attempt)
            t0 = time.monotonic()
            out = next(outs)
            seconds = time.monotonic() - t0
            if isinstance(out, Exception):
                detail = f"{type(out).__name__}: {out}"
                put(("err", wid, ep, seq, attempt, detail,
                     isinstance(out, _DETERMINISTIC), seconds))
            else:
                put(("ok", wid, ep, seq, attempt, out, seconds))


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = (
        "wid",
        "proc",
        "task_q",
        "results",
        "ready",
        "unit",
        "held",
        "deadline",
        "timed_out",
        "born",
        "chosen",
        "skipped",
    )

    def __init__(self, wid: int, proc, task_q, results, now: float) -> None:
        self.wid = wid
        self.proc = proc
        self.task_q = task_q
        self.results = results
        self.ready = False
        self.unit: deque[int] = deque()  # seqs handed out, not yet reported
        self.held: deque[int] = deque()  # last seq of each unit handed out
        self.deadline: float | None = None
        self.timed_out: int | None = None  # the seq it was killed on
        self.born = now
        self.chosen: str | None = None
        self.skipped: list[tuple[str, str]] = []

    def release(self) -> None:
        """Reap the exited process and close its channels."""
        self.proc.join()
        self.results.close()
        self.task_q.close()
        self.task_q.cancel_join_thread()


def _split(seqs: list[int], parts: int) -> list[list[int]]:
    """``seqs`` in ``parts`` contiguous near-equal chunks (no empty one)."""
    parts = min(parts, len(seqs))
    bounds = [len(seqs) * k // parts for k in range(parts + 1)]
    return [seqs[a:b] for a, b in zip(bounds, bounds[1:])]


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
    ) -> None:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.workers = max(1, workers)
        self.backend = backend
        plan = fault_plan if fault_plan is not None else faults.active_plan()
        self._plan_json = plan.to_json() if plan is not None else None
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
            w.release()
        self._pool = []

    def _spawn(self) -> _Worker:
        wid = self._spawned
        self._spawned += 1
        task_q = self._ctx.Queue()
        # Results go through a pipe of the worker's own, written in its
        # main thread: no mp.Queue feeder thread and no lock shared with
        # other workers, so a worker killed mid-message tears only its
        # own pipe and can never leave a lock held for the others.
        results, results_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                task_q,
                results_w,
                self.backend,
                self._plan_json,
                self._probed,
            ),
            daemon=True,
        )
        proc.start()
        results_w.close()
        return _Worker(wid, proc, task_q, results, time.monotonic())

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
        emit: Callable[[int, list], None],
        abort=None,
    ) -> RunReport:
        """Run ``tasks`` (a ``(group index, Scenario)`` stream) supervised.

        ``emit(gi, records)`` receives every scenario's record **in
        stream order**, a :class:`ScenarioRecord` or (for quarantined
        scenarios) a :class:`FailedRecord`: each call hands over the
        settled records of one tree group that a loop turn collected,
        so a checkpoint pays one append per batch. ``timeout`` is a
        per-scenario wall-clock budget in seconds (the first scenario
        of a unit also carries the unit's batched sweep). ``abort`` is
        an optional ``threading.Event``; once set, the run raises
        :class:`CampaignAborted` at the next loop turn (in-flight
        workers finish their unit in the background and the epoch
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

        # Work units in stream order: (seqs, whole tree group?).
        pending: list[tuple[list[int], bool]] = []
        for seq, (gi, _) in enumerate(tasks):
            if pending and tasks[pending[-1][0][0]][0] == gi:
                pending[-1][0].append(seq)
            else:
                pending.append(([seq], True))
        groups_left = len(pending)

        begin = ("begin", epoch, validate, timeout is not None)
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
            if self._probed is None:
                report.probes += 1  # this worker will probe the backends
            w = self._spawn()
            w.task_q.put(begin)
            return w

        def charge(
            seq: int, wid: int, status: str, detail: str,
            seconds: float = 0.0, deterministic: bool = False,
        ) -> None:
            """Charge ``seq`` one failed attempt: quarantine it, or queue
            its retry behind the backoff."""
            attempts_used[seq] += 1
            report.scenarios[seq].attempts.append(
                AttemptLog(attempts_used[seq] - 1, wid, status, detail, seconds)
            )
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
                eligible[seq] = time.monotonic() + backoff * (2 ** (attempts_used[seq] - 1))
                requeue([seq])

        def requeue(seqs: list[int]) -> None:
            """Queue each of ``seqs`` as a one-scenario unit, in stream order."""
            pending.extend(([s], False) for s in seqs)
            pending.sort(key=lambda unit: unit[0][0])

        pool = self._pool
        try:
            # Re-enlist the survivors of previous runs and top the pool
            # up; every live worker gets this run's "begin" first.
            for w in pool:
                if not w.proc.is_alive():
                    w.release()
            pool = [w for w in pool if w.proc.is_alive()]
            self._pool = pool
            now = time.monotonic()
            for w in pool:
                w.unit.clear()
                w.held.clear()
                w.deadline = None
                w.timed_out = None
                w.born = now  # a held-over worker is not stillborn
                w.task_q.put(begin)
                if w.ready:  # its "ready" was consumed by an earlier run
                    report.backends.append((w.wid, w.chosen, list(w.skipped)))
            while len(pool) < min(workers, n):
                pool.append(spawn())

            while cursor < n:
                if abort is not None and abort.is_set():
                    raise CampaignAborted(
                        f"run aborted after {cursor}/{n} scenario(s)"
                    )
                now = time.monotonic()

                # 1. hand each ready worker a runnable unit, and a second
                #    one queued behind it while at least `workers` units
                #    wait, so no worker idles waiting for this loop
                for depth in (0, 1):
                    for w in pool:
                        if not w.ready or len(w.held) != depth:
                            continue
                        if depth and len(pending) < workers:
                            break
                        k = next(
                            (k for k, (u, _) in enumerate(pending) if eligible[u[0]] <= now),
                            None,
                        )
                        if k is None:
                            break
                        seqs, whole = pending.pop(k)
                        if whole:
                            groups_left -= 1
                            if groups_left + 1 < workers:  # fewer trees than workers
                                seqs, *rest = _split(seqs, workers)
                                pending[k:k] = [(chunk, False) for chunk in rest]
                        w.unit.extend(seqs)
                        w.held.append(seqs[-1])
                        gi = tasks[seqs[0]][0]
                        w.task_q.put((
                            "task", epoch, gi, instances[gi], seqs,
                            [tasks[s][1] for s in seqs],
                            [attempts_used[s] for s in seqs],
                        ))

                # 2. block until a message, a worker death or a timer
                timers = [w.deadline for w in pool if w.deadline is not None]
                timers += [w.born + _READY_TIMEOUT for w in pool if not w.ready]
                timers += [eligible[u[0]] for u, _ in pending if eligible[u[0]] > now]
                wait_s = min([_ABORT_CHECK, *(t - now for t in timers)])
                ready = wait(
                    [*(w.results for w in pool), *(w.proc.sentinel for w in pool)],
                    max(0.0, wait_s),
                )
                # Snapshot the dead *before* draining: everything a dead
                # worker wrote is then already in the pipe, so its
                # casualty is charged only after its last reports.
                dead = [w for w in pool if w.proc.sentinel in ready]
                msgs = []
                for w in pool:
                    if w.results in ready or w in dead:
                        drain = select.poll()  # far cheaper than Connection.poll
                        drain.register(w.results, select.POLLIN)
                        try:
                            while drain.poll(0):
                                msgs.append(w.results.recv())
                        except (EOFError, OSError):
                            pass  # a dead worker's closed (or torn) pipe
                by_wid = {w.wid: w for w in pool}
                for msg in msgs:
                    kind, wid = msg[0], msg[1]
                    w = by_wid.get(wid)
                    if kind == "fatal":
                        raise RuntimeError(f"worker {wid}: {msg[2]}")
                    if kind == "ready":
                        _, _, chosen, skipped, did_probe = msg
                        if did_probe and self._probed is None:
                            # later spawns skip the two-node probe
                            self._probed = (chosen, tuple(map(tuple, skipped)))
                        report.backends.append((wid, chosen, list(skipped)))
                        if w is not None:
                            w.ready = True
                            w.chosen = chosen
                            w.skipped = list(skipped)
                        continue
                    if msg[2] != epoch or w is None or not w.unit or w.unit[0] != msg[3]:
                        continue  # stale: an aborted earlier run's unit
                    seq = msg[3]
                    if kind == "start":
                        w.deadline = time.monotonic() + timeout
                        continue
                    w.unit.popleft()
                    if seq == w.held[0]:
                        w.held.popleft()
                    w.deadline = None  # re-armed by the next "start"
                    if kind == "ok":
                        _, _, _, _, attempt, record, seconds = msg
                        outcome[seq] = record
                        attempts_used[seq] = attempt + 1
                        report.scenarios[seq].attempts.append(
                            AttemptLog(attempt, wid, "ok", "", seconds)
                        )
                    else:
                        _, _, _, _, _, detail, deterministic, seconds = msg
                        charge(seq, wid, "error", detail, seconds, deterministic)

                # 3. wedged workers: past their per-scenario deadline -> kill
                now = time.monotonic()
                for w in pool:
                    if w.deadline is not None and now > w.deadline and w not in dead:
                        w.timed_out = w.unit[0]
                        w.deadline = None
                        w.proc.kill()

                # 4. dead workers: charge the casualty, re-queue the rest
                for w in dead:
                    w.proc.join()  # sets the exit code
                    if w.unit:
                        head, *rest = w.unit
                        if w.timed_out is None:
                            code = w.proc.exitcode
                            charge(head, w.wid, "crash", f"worker died (exit code {code})")
                        elif w.timed_out == head:
                            charge(head, w.wid, "timeout",
                                   f"exceeded {timeout:g}s; worker killed")
                        else:  # its timed-out scenario finished before the kill
                            rest.insert(0, head)
                        requeue(rest)
                    pool.remove(w)
                    w.release()
                for w in pool:
                    if not w.ready and now - w.born > _READY_TIMEOUT:
                        raise RuntimeError(
                            f"worker {w.wid} produced no ready message within "
                            f"{_READY_TIMEOUT:.0f}s"
                        )
                if dead:
                    while len(pool) < min(workers, outcome.count(None)):
                        pool.append(spawn())
                        report.respawns += 1

                # 5. advance the write cursor: emit the settled prefix in
                #    order, one call per tree group it spans
                while cursor < n and outcome[cursor] is not None:
                    gi, end = tasks[cursor][0], cursor + 1
                    while end < n and outcome[end] is not None and tasks[end][0] == gi:
                        end += 1
                    emit(gi, outcome[cursor:end])
                    cursor = end
        finally:
            self._pool = pool

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
    emit: Callable[[int, list], None],
    abort=None,
) -> RunReport:
    """One-shot supervised run: build a pool, run once, tear it down.

    See :meth:`SupervisorPool.run` for the contract.
    """
    pool = SupervisorPool(workers=workers, backend=backend, fault_plan=fault_plan)
    try:
        return pool.run(
            instances,
            tasks,
            validate=validate,
            retries=retries,
            timeout=timeout,
            backoff=backoff,
            emit=emit,
            abort=abort,
        )
    finally:
        pool.close()
