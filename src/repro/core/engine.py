"""Unified event-driven scheduling engine (the paper's Algorithm 3, once).

Every list-style scheduler of this repository -- ParInnerFirst,
ParDeepestFirst, their ablation variants, and the memory-capped
extension -- is an instance of the same event sweep: whenever a task
finishes, its parent may become ready; every idle processor is then
handed the most urgent ready task the start policy allows. Historically
that sweep was implemented twice (``parallel/list_scheduling.py`` and
``parallel/memory_bounded.py``); this module is the single home of the
event loop, and both entry points are thin configurations of
:class:`SchedulerEngine`.

Two design points make the engine fast on large trees:

* **Vectorized priorities.** Heuristics no longer supply a per-node
  Python callable returning a sortable tuple; they supply numpy key
  columns (structure of arrays) that :func:`lex_rank` collapses into a
  single integer rank per node with one ``np.lexsort``. The ready heap
  then holds plain integer ranks, so the event loop performs O(log n)
  integer heap operations only -- no closure calls, no float tuple
  comparisons, no numpy scalar indexing.
* **Pluggable sweep backends.** The sweep itself exists as a
  backend-neutral kernel spec (:mod:`repro.core._sweep`): typed numpy
  arrays in, typed numpy arrays out. ``backend="python"`` runs the
  reference heapq loop below (the CPython floor, ~1.5 us/task);
  ``backend="c"`` runs a serial C translation built on demand with the
  system toolchain (:mod:`repro.core._ckernel`); ``backend="kernel"``
  runs the kernel source interpreted (slow; for testing the kernel
  logic without a compiler). ``backend="auto"`` (the default) picks C
  when it builds and falls back cleanly to pure Python. **Every
  backend produces bit-identical schedules** -- pinned by the
  cross-backend golden tests, so perf work can never silently change
  paper results.

Complexity is :math:`O(n \\log n)` (binary heaps for both the running
set and the ready queue), matching the paper's analysis; the constant
factor is what the backends change.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _sweep
from ._sweep import SweepResult, batch_arrays
from .prepared import PreparedTree, as_prepared, stack_unique
from .schedule import Schedule
from .tree import TaskTree, NO_PARENT

__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "BatchRun",
    "BatchScenario",
    "EngineState",
    "MemoryCapError",
    "SchedulerEngine",
    "available_backends",
    "default_threads",
    "lex_rank",
    "probe_backend",
    "rank_from_callable",
    "resolve_backend",
    "sweep_batch",
]

#: environment variable overriding the default backend selection
BACKEND_ENV_VAR = "REPRO_ENGINE_BACKEND"

#: accepted values for ``SchedulerEngine(backend=...)``
BACKENDS = ("auto", "python", "c", "kernel")


def default_threads() -> int:
    """Threads a batched sweep runs on: always 1.

    Every kernel sweeps its scenarios serially in one thread; worker
    processes are the parallel unit. Kept so run reports can state it.
    """
    return 1


class MemoryCapError(RuntimeError):
    """Raised when no task fits under the cap and none is running."""


class BackendUnavailableError(RuntimeError):
    """An explicitly requested sweep backend cannot run here."""


def available_backends() -> tuple[str, ...]:
    """The concrete backends usable in this environment, fastest first.

    ``python`` and ``kernel`` are always present; ``c`` requires a
    working C toolchain (first call compiles the kernel).
    """
    names = []
    from . import _ckernel

    if _ckernel.available():
        names.append("c")
    names.append("python")
    names.append("kernel")
    return tuple(names)


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` reads the ``REPRO_ENGINE_BACKEND`` environment variable and
    defaults to ``"auto"``. ``"auto"`` picks the C kernel when it builds,
    else pure Python, and never fails; explicitly requesting an
    unavailable backend raises :class:`BackendUnavailableError` with the
    reason and the fix.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "") or "auto"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "auto":
        from . import _ckernel

        return "c" if _ckernel.available() else "python"
    if backend == "c":
        from . import _ckernel

        if not _ckernel.available():
            raise BackendUnavailableError(
                "backend='c' requested but the compiled kernel is "
                f"unavailable ({_ckernel.unavailable_reason()}); use "
                "backend='auto' to fall back to the fastest available backend"
            )
    return backend


#: memoised :func:`probe_backend` decisions, keyed by
#: ``(backend request, pid)``. The pid key makes the cache fork-safe
#: for free: a forked child (a fresh supervisor worker) sees a miss and
#: probes for itself, while repeated probes inside one process (the
#: scheduling service's ``/readyz``, a supervisor respawning in-process
#: state) hit the cache instead of re-paying the two-node sweep.
_PROBE_CACHE: dict[tuple[str, int], tuple[str, tuple[tuple[str, str], ...]]] = {}


def probe_backend(
    backend: str | None = None, *, refresh: bool = False
) -> tuple[str, list[tuple[str, str]]]:
    """Health-probe the sweep-backend chain; return what actually works.

    :func:`resolve_backend` answers "is the backend nominally present"
    (module importable, artifact compiled); this function answers "does
    it *run*": each candidate executes a real two-node sweep, and the
    first one to produce a schedule wins. Candidates are tried in
    degradation order -- the requested backend first, then the
    remaining concrete backends fastest-first (``c``, ``python``), so
    an explicit ``backend="c"`` whose compile fails (toolchain missing,
    or an injected ``compile_failure`` fault) degrades ``c -> python``
    instead of raising.

    Returns ``(usable backend, skipped)`` where ``skipped`` lists the
    ``(backend, reason)`` pairs that failed the probe -- the supervised
    campaign runtime probes once per worker at pool startup, caches the
    decision for the worker's lifetime, and records ``skipped`` in the
    :class:`~repro.analysis.supervisor.RunReport`. Results never depend
    on the outcome: every backend is bit-identical.

    The decision is memoised per ``(backend request, pid)``, so
    repeated probes in one process (health endpoints, pool restarts)
    cost a dict lookup. The cache is bypassed -- never read, never
    written -- while a fault plan is active (injected compile failures
    must keep degrading the probe), and ``refresh=True`` forces a live
    probe.
    """
    from repro.testing import faults

    key = (
        backend or os.environ.get(BACKEND_ENV_VAR, "") or "auto",
        os.getpid(),
    )
    cacheable = faults.active_plan() is None
    if cacheable and not refresh:
        hit = _PROBE_CACHE.get(key)
        if hit is not None:
            return hit[0], [tuple(s) for s in hit[1]]
    skipped: list[tuple[str, str]] = []
    try:
        first: str | None = resolve_backend(backend)
    except BackendUnavailableError as exc:
        requested = backend or os.environ.get(BACKEND_ENV_VAR, "") or "auto"
        skipped.append((requested, str(exc)))
        first = None
    chain = ([first] if first is not None else []) + [
        b for b in ("c", "python") if b != first
    ]
    probe_tree = TaskTree.from_parents([-1, 0], w=1.0, f=1.0, sizes=0.0)
    rank = np.arange(2, dtype=np.int64)
    for candidate in chain:
        try:
            resolve_backend(candidate)
            SchedulerEngine(probe_tree, 1, rank, backend=candidate).run()
            if cacheable:
                _PROBE_CACHE[key] = (candidate, tuple(map(tuple, skipped)))
            return candidate, skipped
        except Exception as exc:
            skipped.append((candidate, f"{type(exc).__name__}: {exc}"))
    raise RuntimeError(
        "no usable sweep backend: "
        + "; ".join(f"{b}: {reason}" for b, reason in skipped)
    )


def lex_rank(*keys: np.ndarray) -> np.ndarray:
    """Collapse lexicographic key columns into one integer rank per node.

    ``keys`` are given most-significant first; the node index is the
    implicit final tie-break. The result is a permutation of
    ``0..n-1``: ``lex_rank(k0, k1)[i] < lex_rank(k0, k1)[j]`` exactly
    when the tuple ``(k0[i], k1[i], i)`` sorts before
    ``(k0[j], k1[j], j)``. Smaller rank is scheduled first (heapq
    convention), so a rank array is a drop-in replacement for a
    per-node priority-tuple callable.
    """
    cols = [np.asarray(k) for k in keys]
    if not cols:
        raise ValueError("need at least one key column")
    n = cols[0].shape[0]
    # np.lexsort sorts by its *last* key first and is stable, so rows
    # with fully equal keys keep ascending index order -- exactly the
    # implicit final tie-break of a ``(keys..., i)`` tuple sort.
    order = np.lexsort(tuple(reversed(cols)))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    return rank


def rank_from_callable(tree: TaskTree, priority: Callable[[int], tuple]) -> np.ndarray:
    """Rank array equivalent to a legacy per-node priority callable.

    The historical engines compared ``(priority(i), i)`` heap entries;
    sorting all nodes by that exact key yields a total order, so the
    resulting rank array reproduces the legacy schedule bit for bit
    while letting the event loop stay integer-only.
    """
    n = tree.n
    by_key = sorted(range(n), key=lambda i: (priority(i), i))
    rank = np.empty(n, dtype=np.int64)
    rank[by_key] = np.arange(n, dtype=np.int64)
    return rank


@dataclass
class EngineState:
    """Mutable state of one :class:`SchedulerEngine` run.

    Attributes
    ----------
    ready:
        heap of bare integer ranks (node = position of the rank in the
        engine's priority permutation): tasks whose children all
        completed but that have not started yet.
    running:
        heap of ``(completion time, node)`` pairs: the event set.
    pending:
        per-node count of children that have not completed yet; a node
        becomes ready when its counter reaches zero. (Populated by the
        pure-Python backend only; kernel backends keep their state in
        typed arrays and report the summary fields below.)
    free_procs:
        idle processor indices (popped from the tail, so processor 0 is
        assigned first).
    now / started:
        current simulation time and number of started tasks.
    mem / next_sigma:
        memory accounting (resident size and the first index of the
        activation order not yet started); only meaningful when the
        engine was configured with a cap.
    """

    ready: list = field(default_factory=list)
    running: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    free_procs: list = field(default_factory=list)
    now: float = 0.0
    mem: float = 0.0
    started: int = 0
    next_sigma: int = 0


class SchedulerEngine:
    """Event-driven list scheduler with pluggable priorities, sweep
    backends, and an optional peak-memory cap.

    Parameters
    ----------
    tree, p:
        the instance: task tree and number of identical processors.
        ``tree`` may be a bare :class:`~repro.core.tree.TaskTree` or a
        :class:`~repro.core.prepared.PreparedTree`; the prepared form
        shares every run-invariant derivation (pending counts, memory
        columns, exactness flags, rank inverses, list conversions)
        across engine runs, which is what makes (algorithm x p x cap)
        sweeps cheap. Schedules are bit-identical either way.
    rank:
        integer priority rank per node (a permutation of ``0..n-1``,
        e.g. from :func:`lex_rank` or :func:`rank_from_callable`); the
        ready task with the smallest rank starts first.
    cap:
        optional memory budget. When set, the engine accounts resident
        file sizes exactly as the simulator does and never starts a
        task that would exceed the cap.
    order:
        activation order :math:`\\sigma` used by the memory modes
        (default: the memory-optimal sequential postorder). Ignored
        without a cap.
    mode:
        ``"strict"`` -- tasks start exactly in :math:`\\sigma` order
        (``rank`` must then equal the :math:`\\sigma` rank); any cap at
        least the sequential peak of :math:`\\sigma` is feasible.
        ``"opportunistic"`` -- any ready task that fits may start,
        preferring the smallest rank; a tight cap may become infeasible,
        raising :class:`MemoryCapError`.
    backend:
        ``"auto"`` (default; also via the ``REPRO_ENGINE_BACKEND``
        environment variable), ``"python"``, ``"c"`` or ``"kernel"`` --
        see the module docstring. All backends are
        bit-identical; explicitly requesting an unavailable one raises
        :class:`BackendUnavailableError` at construction time.
    """

    def __init__(
        self,
        tree: TaskTree | PreparedTree,
        p: int,
        rank: np.ndarray,
        *,
        cap: float | None = None,
        order: np.ndarray | None = None,
        mode: str = "strict",
        backend: str | None = None,
    ) -> None:
        if p < 1:
            raise ValueError("p must be positive")
        if mode not in ("strict", "opportunistic"):
            raise ValueError(f"unknown mode {mode!r}")
        prepared = as_prepared(tree)
        tree = prepared.tree
        rank = np.ascontiguousarray(rank, dtype=np.int64)
        if rank.shape[0] != tree.n:
            raise ValueError("rank must have one entry per task")
        # Ranks minted by the prepared bundle are permutations by
        # construction (their inverse is already cached); externally
        # supplied ranks are validated as before.
        byrank = prepared.byrank_for(rank)
        if byrank is None:
            if (
                int(rank.min()) < 0
                or int(rank.max()) >= tree.n
                or int(np.bincount(rank, minlength=tree.n).max()) > 1
            ):
                raise ValueError(
                    "rank must be a permutation of 0..n-1 (build one with "
                    "lex_rank over priority key columns)"
                )
            # byrank[r] is the node holding rank r, so the ready heap can
            # store bare integer ranks (fastest possible heap entries).
            byrank = np.empty(tree.n, dtype=np.int64)
            byrank[rank] = np.arange(tree.n, dtype=np.int64)
        self.prepared = prepared
        self.tree = tree
        self.p = int(p)
        self.rank = rank
        self.cap = None if cap is None else float(cap)
        self.mode = mode
        self.backend = resolve_backend(backend)
        if self.cap is not None:
            if order is None:
                order = prepared.optimal().order
            order = np.ascontiguousarray(order, dtype=np.int64)
            if order.shape[0] != tree.n:
                raise ValueError("order must contain every task exactly once")
            self.order = order
        else:
            self.order = None
        self._byrank = byrank
        # Integral weights (the paper's data sets and the Pebble-Game
        # regime) let the reference backend use exact integer event keys
        # ``end * n + node``; the kernel backends always use a
        # (float64 end, node) pair heap, whose order coincides as long
        # as every completion time is exactly representable in a
        # float64 (total weight below 2**53). Both flags are pure
        # functions of the weight column, cached on the prepared bundle.
        self._int_keys = prepared.int_keys
        self._kernel_exact = prepared.kernel_exact
        self.backend_used: str | None = None  # populated by run()
        self.state: EngineState | None = None  # populated by run()
        self.sweep: SweepResult | None = None  # populated by run()

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        """Execute the event sweep and return the resulting schedule.

        Both :func:`repro.parallel.list_schedule` and
        :func:`repro.parallel.memory_bounded_schedule` end up here. The
        kernel backends are only engaged when their float64 event keys
        are exactly equivalent to the reference backend's integer
        encoding (always true except for integral weights totalling
        >= 2**53, where the sweep silently falls back to the reference
        loop so the bit-identity contract holds unconditionally).
        """
        if self.backend != "python" and self._kernel_exact:
            self.backend_used = self.backend
            rows = _kernel_sweep(self.prepared, [self])
            return self._finish_kernel(*(row[0] for row in rows))
        self.backend_used = "python"
        return self._run_python()

    # ------------------------------------------------------------------
    def _mode_args(self) -> tuple[int, float]:
        """``(mode code, cap_eps)`` for the kernel spec."""
        if self.cap is None:
            return 0, 0.0
        return (1 if self.mode == "strict" else 2), self.cap + 1e-9

    def _finish_kernel(
        self, start, end, proc, activation, mem_trace, status, finals
    ) -> Schedule:
        """Interpret one kernel-spec result row: raise the exact error
        the reference loop would, or record the sweep and return the
        schedule. Shared by single runs and :func:`sweep_batch`, so both
        produce byte-identical outcomes *and* messages."""
        tree = self.tree
        n = tree.n
        capped = self.cap is not None
        alloc = self.prepared.alloc
        code = int(status[0])
        if code == 1:
            node = int(status[1])
            mem = float(finals[1])
            raise MemoryCapError(
                f"cap {self.cap:g} infeasible: task {node} needs "
                f"{mem + alloc[node]:g} with nothing running "
                f"(mode={self.mode}; sequential peak of the activation "
                f"order is a feasible cap in strict mode)"
            )
        if code == 2:
            raise ValueError(
                "strict mode requires rank to follow the activation order"
            )
        if code == 4:  # pragma: no cover - C kernel scratch malloc failed
            raise MemoryError(
                f"C sweep kernel could not allocate scratch heaps for n={n}"
            )
        if code != 0:  # pragma: no cover - defensive
            raise RuntimeError("deadlock: tasks left but no event pending")
        self.sweep = SweepResult(
            start=start,
            end=end,
            proc=proc,
            activation=activation,
            mem_trace=mem_trace,
            now=float(finals[0]),
            mem=float(finals[1]),
        )
        self.state = EngineState(
            now=float(finals[0]),
            mem=float(finals[1]),
            started=n,
            next_sigma=n if capped else 0,
        )
        return Schedule(tree, start, proc, self.p)

    # ------------------------------------------------------------------
    def _run_python(self) -> Schedule:
        """The pure-Python reference backend: a heapq event loop over
        Python lists (numpy scalar indexing inside a tight loop costs
        ~100ns per access, so all per-node arrays are converted to
        lists once). This loop *defines* the schedule semantics; the
        kernel backends mirror it statement for statement."""
        tree = self.tree
        n = tree.n
        prepared = self.prepared
        # The per-node array -> list conversions are run-invariant, so
        # the prepared bundle performs them once and every later run
        # reads the same lists (``pending`` is mutated below, hence the
        # fresh tolist per run).
        parent = prepared.parent_list()
        int_keys = self._int_keys
        w = prepared.w_list()
        rank = self.rank.tolist()
        byrank = self._byrank.tolist()
        pending0 = prepared.pending0
        ready_init = self.rank[pending0 == 0].tolist()
        pending = pending0.tolist()

        capped = self.cap is not None
        strict = self.mode == "strict"
        alloc = prepared.alloc_list()
        free_on_end = prepared.free_list()
        if capped:
            cap_eps = self.cap + 1e-9
            sigma = self.order.tolist()

        start = [-1.0] * n
        proc = [-1] * n
        activation = [-1] * n
        mem_trace = [0.0] * n
        state = EngineState(
            ready=ready_init,
            running=[],
            pending=pending,
            free_procs=list(range(self.p - 1, -1, -1)),  # pop() yields proc 0 first
        )
        self.state = state
        heapq.heapify(state.ready)
        ready = state.ready
        running = state.running
        free_procs = state.free_procs
        free_pop = free_procs.pop
        free_push = free_procs.append
        push = heapq.heappush
        pop = heapq.heappop

        now = 0 if int_keys else 0.0
        mem = 0.0
        started = 0
        next_sigma = 0
        while True:
            # Start every task the policy allows on the idle processors.
            while free_procs and ready:
                if not capped:
                    node = byrank[pop(ready)]
                elif strict:
                    node = sigma[next_sigma]
                    if pending[node] > 0 or mem + alloc[node] > cap_eps:
                        break
                    # The next sigma task is necessarily the smallest
                    # rank present (ranks follow the activation order).
                    if pop(ready) != rank[node]:
                        raise ValueError(
                            "strict mode requires rank to follow the activation order"
                        )
                else:
                    skipped: list[int] = []
                    node = -1
                    while ready:
                        r = pop(ready)
                        cand = byrank[r]
                        if mem + alloc[cand] <= cap_eps:
                            node = cand
                            break
                        skipped.append(r)
                    for item in skipped:
                        push(ready, item)
                    if node < 0:
                        break
                q = free_pop()
                start[node] = now
                proc[node] = q
                end = now + w[node]
                push(running, end * n + node if int_keys else (end, node))
                mem += alloc[node]
                activation[started] = node
                mem_trace[started] = mem
                started += 1
                if capped:
                    while next_sigma < n and start[sigma[next_sigma]] >= 0:
                        next_sigma += 1
            if not running:
                if started >= n:
                    break
                if capped:
                    node = sigma[next_sigma]
                    raise MemoryCapError(
                        f"cap {self.cap:g} infeasible: task {node} needs "
                        f"{mem + alloc[node]:g} with nothing running "
                        f"(mode={self.mode}; sequential peak of the activation "
                        f"order is a feasible cap in strict mode)"
                    )
                raise RuntimeError(  # pragma: no cover - defensive
                    "deadlock: tasks left but no event pending"
                )
            # Advance to the next completion event; apply every completion
            # at that instant (in event order, so processors are freed and
            # re-filled exactly as the historical engines did) before
            # assigning again.
            if int_keys:
                key = pop(running)
                now, node = divmod(key, n)
                base = key - node  # keys of this instant lie in [base, base+n)
                bound = base + n
            else:
                now, node = pop(running)
            while True:
                free_push(proc[node])
                mem -= free_on_end[node]
                par = parent[node]
                if par != NO_PARENT:
                    if pending[par] == 1:
                        pending[par] = 0
                        push(ready, rank[par])
                    else:
                        pending[par] -= 1
                if not running:
                    break
                if int_keys:
                    if running[0] < bound:
                        node = pop(running) - base
                    else:
                        break
                elif running[0][0] == now:
                    node = pop(running)[1]
                else:
                    break
        state.now = now
        state.mem = mem
        state.started = started
        state.next_sigma = next_sigma
        start_arr = np.asarray(start, dtype=np.float64)
        self.sweep = SweepResult(
            start=start_arr,
            end=start_arr + tree.w,
            proc=np.asarray(proc, dtype=np.int64),
            activation=np.asarray(activation, dtype=np.int64),
            mem_trace=np.asarray(mem_trace, dtype=np.float64),
            now=float(now),
            mem=float(mem),
        )
        return Schedule(tree, self.sweep.start, self.sweep.proc, self.p)


# ----------------------------------------------------------------------
# Megabatch sweeps: one kernel call per (algorithm x p x cap) grid.


@dataclass(frozen=True)
class BatchScenario:
    """One scenario of a megabatch grid against a shared tree.

    The fields mirror the :class:`SchedulerEngine` constructor minus the
    tree: a priority ``rank`` permutation, the processor count ``p``,
    and the optional memory configuration (``cap``, activation
    ``order``, ``mode``). Registered heuristics expose a
    ``batch_spec`` builder (see :mod:`repro.registry`) so campaign grids
    never have to assemble these by hand.
    """

    rank: np.ndarray
    p: int
    cap: float | None = None
    order: np.ndarray | None = None
    mode: str = "strict"


@dataclass
class BatchRun:
    """Result of :func:`sweep_batch`.

    ``outcomes[i]`` is scenario *i*'s :class:`~repro.core.schedule.Schedule`
    or the exception its unbatched run would have raised (stored, not
    raised, so one infeasible cap cannot discard a whole grid);
    ``engines[i]`` is the fully-run engine (``.sweep``, ``.state``,
    ``.backend_used`` populated exactly as after ``run()``). ``threads``
    is always 1: the kernels are serial.
    """

    engines: list[SchedulerEngine]
    outcomes: list[Schedule | Exception]
    backend: str
    threads: int = 1

    def schedules(self) -> list[Schedule]:
        """All schedules; re-raises the first stored scenario error."""
        for out in self.outcomes:
            if isinstance(out, Exception):
                raise out
        return list(self.outcomes)


def _kernel_sweep(
    prepared: PreparedTree, engines: list[SchedulerEngine]
) -> tuple[np.ndarray, ...]:
    """Sweep kernel-exact engines of one tree and one kernel backend in
    a single batched kernel call.

    Stacks the per-scenario parameters (p, memory mode, rank ids, sigma
    ids) and returns the stacked ``(start, end, proc, activation,
    mem_trace, status, finals)`` output arrays, row ``j`` belonging to
    ``engines[j]`` (interpret it with :meth:`SchedulerEngine._finish_kernel`).
    """
    n = prepared.tree.n
    nscen = len(engines)
    # Deduplicate rank stacks by array identity: scenarios of one grid
    # typically share a handful of rank permutations (cached on the
    # prepared bundle), so the stacks stay small. ``byrank`` is paired
    # through the same id-keyed cache, keeping rows aligned.
    rank_rows: list[np.ndarray] = []
    byrank_rows: list[np.ndarray] = []
    rank_map: dict[int, int] = {}
    rank_id = np.empty(nscen, dtype=np.int64)
    ps = np.empty(nscen, dtype=np.int64)
    modes = np.empty(nscen, dtype=np.int64)
    cap_eps = np.empty(nscen, dtype=np.float64)
    for j, e in enumerate(engines):
        rid = rank_map.get(id(e.rank))
        if rid is None:
            rid = len(rank_rows)
            rank_map[id(e.rank)] = rid
            rank_rows.append(e.rank)
            byrank_rows.append(e._byrank)
        rank_id[j] = rid
        ps[j] = e.p
        modes[j], cap_eps[j] = e._mode_args()
    ranks = np.ascontiguousarray(np.stack(rank_rows))
    byranks = np.ascontiguousarray(np.stack(byrank_rows))
    # e.order is None exactly for uncapped scenarios, so stack_unique
    # assigns them the -1 sentinel (the kernels never read their sigma)
    # and deduplicates the shared activation orders.
    sigmas, sigma_id = stack_unique([e.order for e in engines])
    out = batch_arrays(nscen, n)
    args = (
        prepared.tree.parent,
        prepared.pending0,
        prepared.tree.w,
        ranks,
        byranks,
        rank_id,
        ps,
        modes,
        cap_eps,
        prepared.alloc,
        prepared.free_on_end,
        sigmas,
        sigma_id,
        *out,
    )
    if engines[0].backend == "c":
        from . import _ckernel

        _ckernel.batch_kernel(*args)
    else:  # "kernel": the interpreted spec
        _sweep.batch_sweep(*args)
    return out


def sweep_batch(
    tree: TaskTree | PreparedTree,
    scenarios: list[BatchScenario],
    *,
    backend: str | None = None,
) -> BatchRun:
    """Sweep a whole scenario grid against one tree in one kernel call.

    Stacks the per-scenario parameters (p, memory mode, rank ids, sigma
    ids) and dispatches a single batched kernel call that sweeps the
    scenarios one after another. Per-scenario results are
    **bit-identical** to running each scenario through
    :class:`SchedulerEngine` individually, for every backend: scenarios
    share only read-only columns and each sweeps over private scratch.

    Scenarios the kernel contract excludes -- ``backend="python"``, or
    integral weights >= 2**53 where float64 event keys lose exactness --
    fall back to the reference loop *per scenario*; the rest of the grid
    still goes through the compiled megabatch.
    """
    prepared = as_prepared(tree)
    engines = [
        SchedulerEngine(
            prepared,
            sc.p,
            sc.rank,
            cap=sc.cap,
            order=sc.order,
            mode=sc.mode,
            backend=backend,
        )
        for sc in scenarios
    ]
    resolved = engines[0].backend if engines else resolve_backend(backend)
    outcomes: list[Schedule | Exception] = [None] * len(engines)  # type: ignore[list-item]
    kernel_idx: list[int] = []
    for i, e in enumerate(engines):
        if e.backend != "python" and e._kernel_exact:
            kernel_idx.append(i)
        else:
            # per-scenario exactness/backend fallback: run() takes the
            # reference loop for exactly these scenarios, as unbatched.
            try:
                outcomes[i] = e.run()
            except (MemoryCapError, ValueError, MemoryError) as exc:
                outcomes[i] = exc
    if kernel_idx:
        rows = _kernel_sweep(prepared, [engines[i] for i in kernel_idx])
        for j, i in enumerate(kernel_idx):
            e = engines[i]
            e.backend_used = e.backend
            try:
                outcomes[i] = e._finish_kernel(*(row[j] for row in rows))
            except (MemoryCapError, ValueError, MemoryError) as exc:
                outcomes[i] = exc
    return BatchRun(engines=engines, outcomes=outcomes, backend=resolved)
