"""Unified event-driven scheduling engine (the paper's Algorithm 3, once).

Every list-style scheduler of this repository -- ParInnerFirst,
ParDeepestFirst, their ablation variants, and the memory-capped
extension -- is an instance of the same event sweep: whenever a task
finishes, its parent may become ready; every idle processor is then
handed the most urgent ready task the start policy allows. This module
is the single home of that event loop: each of those schedulers is a
registry entry whose ``sweep_spec`` describes one
:class:`SchedulerEngine` configuration (:class:`BatchScenario`), and
``registry.run`` sweeps it.

Two design points make the engine fast on large trees:

* **Vectorized priorities.** Heuristics supply numpy key columns
  (structure of arrays) that :func:`lex_rank` collapses into a single
  integer rank per node with one ``np.lexsort``. The ready heap
  then holds plain integer ranks, so the event loop performs O(log n)
  integer heap operations only -- no closure calls, no float tuple
  comparisons, no numpy scalar indexing.
* **One sweep dispatch.** The sweep runs on the C kernel
  (:mod:`repro.core._ckernel`, built on demand with the system
  toolchain) when it builds and passes a two-node health probe in this
  process (:func:`probe_backend`) and the tree is kernel-exact;
  otherwise on the pure-Python reference loop
  (:meth:`SchedulerEngine.run_reference`, the CPython floor, ~1.5
  us/task), which defines the schedule semantics. The engine makes
  this choice itself; nothing overrides it. **Both produce
  bit-identical schedules** -- pinned by ``tests/core/test_backends.py``,
  so perf work can never silently change paper results. The
  simulator's memory profile, Liu's optimal postorder and Algorithm 2's
  split follow the same decision.

Complexity is :math:`O(n \\log n)` (binary heaps for both the running
set and the ready queue), matching the paper's analysis; the constant
factor is what the C kernel changes.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .prepared import PreparedTree, as_prepared, stack_unique
from .schedule import Schedule, processor_count
from .tree import TaskTree, NO_PARENT

__all__ = [
    "BatchRun",
    "BatchScenario",
    "MemoryCapError",
    "SchedulerEngine",
    "default_threads",
    "lex_rank",
    "probe_backend",
    "resolve_backend",
    "sweep_batch",
]


def default_threads() -> int:
    """Threads a batched sweep runs on: always 1.

    Every kernel sweeps its scenarios serially in one thread; worker
    processes are the parallel unit. Kept so run reports can state it.
    """
    return 1


class MemoryCapError(RuntimeError):
    """Raised when no task fits under the cap and none is running."""


#: memoised :func:`probe_backend` decisions, keyed by ``(pid, active
#: fault plan)``. The pid makes the cache fork-safe for free: a forked
#: child (a fresh supervisor worker) sees a miss and probes for itself,
#: while repeated lookups inside one process (every engine run, every
#: Liu pass and split, the scheduling service's ``/readyz``) hit the
#: cache instead of re-paying the probe. The plan (a frozen, hashable
#: :class:`~repro.testing.faults.FaultPlan`, or None) keeps a decision
#: degraded by an injected ``compile_failure`` apart from the plain one;
#: that fault matches no per-call context, so one decision per plan is
#: exact.
_PROBE_CACHE: dict[tuple, tuple[str, tuple[tuple[str, str], ...]]] = {}

#: the two-node instance every probe runs, prepared once at import so
#: that a probe never prepares a tree inside a caller's run
_PROBE_TREE = PreparedTree(TaskTree.from_parents([-1, 0], w=1.0, f=1.0, sizes=0.0))


def _probe_key() -> tuple:
    """The :data:`_PROBE_CACHE` key of this process in its current state."""
    from repro.testing import faults

    return os.getpid(), faults.active_plan()


def adopt_decision(chosen: str, skipped) -> None:
    """Make ``(chosen, skipped)`` this process's memoised decision, as
    if :func:`probe_backend` had found it (a supervisor worker adopts
    its pool's probe this way)."""
    _PROBE_CACHE[_probe_key()] = (chosen, tuple(map(tuple, skipped)))


def probe_backend(*, refresh: bool = False) -> tuple[str, list[tuple[str, str]]]:
    """Health-probe the compiled library; return this process's decision.

    The library is chosen when it builds
    (:func:`repro.core._ckernel.available`), a real two-node sweep on
    it succeeds and every other export reproduces its Python path on
    that tree byte for byte: the memory profile of the swept schedule
    (:func:`repro.core.simulator.memory_profile`), Liu's peaks and
    orders for both tie orders
    (:func:`repro.sequential.postorder.optimal_postorders`) and
    Algorithm 2's splitting
    (:meth:`repro.parallel.split_subtrees.SplitPlan.split`), all of
    which dispatch on the same decision. Otherwise the pure-Python
    reference loop, after the same two-node sweep. Returns ``(chosen,
    skipped)``: ``chosen`` is ``"c"`` or ``"python"``, and ``skipped``
    lists the ``(kernel, reason)`` pairs that failed -- the supervised
    campaign runtime records them per worker in its
    :class:`~repro.analysis.supervisor.RunReport`. Results never depend
    on the outcome: both paths are bit-identical.

    The decision is memoised per pid and active fault plan (see
    :data:`_PROBE_CACHE`), so every later dispatch costs a dict lookup;
    ``refresh=True`` forces a live probe.
    """
    key = _probe_key()
    if not refresh:
        hit = _PROBE_CACHE.get(key)
        if hit is not None:
            return hit[0], list(hit[1])
    from . import _ckernel

    skipped: list[tuple[str, str]] = []
    for name, sweep in (
        ("c", SchedulerEngine._run_kernel),
        ("python", SchedulerEngine.run_reference),
    ):
        if name == "c" and not _ckernel.available():
            skipped.append((name, _ckernel.unavailable_reason()))
            continue
        try:
            schedule = sweep(
                SchedulerEngine(_PROBE_TREE, 1, np.arange(2, dtype=np.int64))
            )
        except Exception as exc:
            skipped.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        if name == "c":
            mismatch = _probe_exports(schedule)
            if mismatch:
                skipped.append((name, mismatch))
                continue
        _PROBE_CACHE[key] = (name, tuple(skipped))
        return name, skipped
    raise RuntimeError(
        "no usable sweep: " + "; ".join(f"{b}: {reason}" for b, reason in skipped)
    )


def _probe_exports(schedule: Schedule) -> str:
    """Why an export other than the sweep differs from its Python path
    on the probe tree and the probe schedule (empty string when every
    one holds the same bytes)."""
    from repro.parallel.split_subtrees import SplitPlan
    from repro.sequential.postorder import _compiled_postorders, _python_postorder

    from .simulator import _memory_profile_compiled, _memory_profile_reference

    tree = _PROBE_TREE.tree
    plan = SplitPlan(tree, tree.subtree_work())
    checks = (
        (
            "memory_profile",
            "the numpy reference on the probe schedule",
            lambda: _memory_profile_compiled(schedule),
            lambda: _memory_profile_reference(schedule),
        ),
        (
            "postorder_peaks",
            "the per-node loop on the probe tree",
            lambda: _compiled_postorders(tree),
            lambda: {d: _python_postorder(tree, d) for d in (False, True)},
        ),
        (
            "split_subtrees",
            "the Python replay on the probe tree",
            lambda: [plan._split_compiled(p) for p in (1, 2)],
            lambda: [plan._split_reference(p) for p in (1, 2)],
        ),
    )
    for export, oracle, compiled, reference in checks:
        try:
            got = compiled()
        except Exception as exc:
            return f"{export}: {type(exc).__name__}: {exc}"
        if not _same_bytes(got, reference()):
            return f"{export} differs from {oracle}"
    return ""


def _same_bytes(a, b) -> bool:
    """True when two results hold the same values, byte for byte in
    every array and float (so ``-0.0`` differs from ``0.0``)."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same_bytes, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_bytes(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__") and type(a) is type(b):
        return all(
            _same_bytes(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    if isinstance(a, (np.ndarray, float)) and isinstance(b, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def resolve_backend() -> str:
    """The sweep this process dispatches to, ``"c"`` or ``"python"``
    (the decision of :func:`probe_backend`)."""
    return probe_backend()[0]


def lex_rank(*keys: np.ndarray) -> np.ndarray:
    """Collapse lexicographic key columns into one integer rank per node.

    ``keys`` are given most-significant first; the node index is the
    implicit final tie-break. The result is a permutation of
    ``0..n-1``: ``lex_rank(k0, k1)[i] < lex_rank(k0, k1)[j]`` exactly
    when the tuple ``(k0[i], k1[i], i)`` sorts before
    ``(k0[j], k1[j], j)``. Smaller rank is scheduled first (heapq
    convention).
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


class SchedulerEngine:
    """Event-driven list scheduler with pluggable priorities and an
    optional peak-memory cap.

    Parameters
    ----------
    tree, p:
        the instance: task tree and number of identical processors (a
        positive integer, see :func:`~repro.core.schedule.processor_count`).
        The engine runs on the :class:`~repro.core.prepared.PreparedTree`
        (a bare tree is prepared on the fly), which shares every
        run-invariant derivation (pending counts, memory columns,
        exactness flags, rank inverses, list conversions) across engine
        runs -- what makes (algorithm x p x cap) sweeps cheap.
    rank:
        integer priority rank per node (a permutation of ``0..n-1``,
        e.g. from :func:`lex_rank`); the ready task with the smallest
        rank starts first.
    cap:
        optional memory budget (NaN is rejected). When set, the engine
        accounts resident file sizes exactly as the simulator does and
        never starts a task that would exceed the cap.
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

    :meth:`run` sweeps on the C kernel or the reference loop (see the
    module docstring) and returns only the :class:`Schedule`, the start
    time and processor of every task; makespan and peak memory are
    measured from it (:func:`~repro.core.simulator.simulate`), never
    from the sweep's internal state. Afterwards ``backend_used`` names
    the sweep that ran.
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
    ) -> None:
        p = processor_count(p)
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
        self.p = p
        self.rank = rank
        self.cap = None if cap is None else float(cap)
        if self.cap is not None and math.isnan(self.cap):
            # every comparison with NaN is False: the cap would never bind
            raise ValueError("cap must not be NaN")
        self.mode = mode
        # the cap plus the feasibility epsilon, shared by both sweeps
        self._cap_eps = None if self.cap is None else self.cap + 1e-9
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
        self.backend_used: str | None = None  # populated by run()

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        """Execute the event sweep and return the resulting schedule.

        Every engine-backed ``registry.run`` and
        :func:`repro.parallel.memory_bounded_schedule` end up here. The
        C kernel runs when this process chose it (:func:`resolve_backend`)
        and the tree is kernel-exact: integral weights let the reference
        loop use exact integer event keys ``end * n + node``, while the
        kernel's (float64 end, node) pairs order identically only while
        every completion time is exactly representable (total weight
        below 2**53; ``PreparedTree.kernel_exact``). Otherwise this falls
        back to :meth:`run_reference`, so the bit-identity contract
        holds unconditionally.
        """
        if self.prepared.kernel_exact and resolve_backend() == "c":
            return self._run_kernel()
        return self.run_reference()

    # ------------------------------------------------------------------
    def _mode_args(self) -> tuple[int, float]:
        """``(mode code, cap_eps)`` for the kernel spec."""
        if self._cap_eps is None:
            return 0, 0.0
        return (1 if self.mode == "strict" else 2), self._cap_eps

    def _cap_error(self, node: int, mem: float) -> MemoryCapError:
        """The infeasible-cap error of both sweeps: ``node`` is the next
        task of the activation order, ``mem`` the resident memory."""
        return MemoryCapError(
            f"cap {self.cap:g} infeasible: task {node} needs "
            f"{mem + float(self.prepared.alloc[node]):g} with nothing running "
            f"(mode={self.mode}; sequential peak of the activation "
            f"order is a feasible cap in strict mode)"
        )

    def _run_kernel(self) -> Schedule:
        """Sweep this one engine on the C kernel."""
        rows = _kernel_sweep(self.prepared, [self])
        return self._finish_kernel(*(row[0] for row in rows))

    def _finish_kernel(self, start, proc, status, resident) -> Schedule:
        """Interpret one kernel-spec result row: raise the exact error
        the reference loop would, or return the schedule. Shared by
        single runs and :func:`sweep_batch`, so both produce
        byte-identical outcomes *and* messages."""
        self.backend_used = "c"
        code = int(status[0])
        if code == 1:
            raise self._cap_error(int(status[1]), float(resident))
        if code == 2:
            raise ValueError(
                "strict mode requires rank to follow the activation order"
            )
        if code == 4:  # pragma: no cover - C kernel scratch malloc failed
            raise MemoryError(
                f"C sweep kernel could not allocate scratch heaps for n={self.tree.n}"
            )
        if code != 0:  # pragma: no cover - defensive
            raise RuntimeError("deadlock: tasks left but no event pending")
        return Schedule(self.tree, start, proc, self.p)

    # ------------------------------------------------------------------
    def run_reference(self) -> Schedule:
        """Sweep on the pure-Python reference loop, the path :meth:`run`
        falls back to (and the test oracle of the C kernel).

        A heapq event loop over Python lists (numpy scalar indexing
        inside a tight loop costs ~100ns per access, so all per-node
        arrays are converted to lists once). This loop *defines* the
        schedule semantics; the C kernel mirrors it statement for
        statement.
        """
        self.backend_used = "python"
        tree = self.tree
        n = tree.n
        prepared = self.prepared
        # The per-node array -> list conversions are run-invariant, so
        # the prepared bundle performs them once and every later run
        # reads the same lists (``pending`` is mutated below, hence the
        # fresh tolist per run).
        parent = prepared.parent_list()
        int_keys = prepared.int_keys
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
            cap_eps = self._cap_eps
            sigma = self.order.tolist()

        start = [-1.0] * n
        proc = [-1] * n
        ready = ready_init
        heapq.heapify(ready)
        running: list = []
        free_procs = list(range(self.p - 1, -1, -1))  # pop() yields proc 0 first
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
                started += 1
                if capped:
                    while next_sigma < n and start[sigma[next_sigma]] >= 0:
                        next_sigma += 1
            if not running:
                if started >= n:
                    break
                if capped:
                    raise self._cap_error(sigma[next_sigma], mem)
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
        return Schedule(
            tree,
            np.asarray(start, dtype=np.float64),
            np.asarray(proc, dtype=np.int64),
            self.p,
        )


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

    def engine(self, tree: TaskTree | PreparedTree) -> SchedulerEngine:
        """The :class:`SchedulerEngine` running this scenario on ``tree``."""
        return SchedulerEngine(
            tree, self.p, self.rank, cap=self.cap, order=self.order, mode=self.mode
        )


@dataclass
class BatchRun:
    """Result of :func:`sweep_batch`.

    ``outcomes[i]`` is scenario *i*'s :class:`~repro.core.schedule.Schedule`
    or the exception its unbatched run would have raised (stored, not
    raised, so one infeasible cap cannot discard a whole grid). The
    schedules are all a grid returns: on the C kernel they are row views
    of one ``(S x n)`` start and one ``(S x n)`` proc stack, 16 bytes per
    (scenario, task). ``backend`` names the sweep that ran the grid.
    ``threads`` is always 1: the kernel is serial.
    """

    outcomes: list[Schedule | Exception]
    backend: str
    threads: int = 1

    def schedules(self) -> list[Schedule]:
        """All schedules; re-raises the first stored scenario error."""
        for out in self.outcomes:
            if isinstance(out, Exception):
                raise out
        return list(self.outcomes)


def batch_arrays(nscen: int, n: int) -> tuple[np.ndarray, ...]:
    """Freshly initialised output arrays for one batched kernel call over
    ``nscen`` scenarios, ``(start, proc, status, resident)``: entry
    ``s`` of each is scenario ``s``'s output (its schedule rows, status
    pair and final resident memory; see the kernel spec in
    :mod:`repro.core._ckernel`)."""
    return (
        np.full((nscen, n), -1.0, dtype=np.float64),
        np.full((nscen, n), -1, dtype=np.int64),
        np.zeros((nscen, 2), dtype=np.int64),
        np.zeros(nscen, dtype=np.float64),
    )


def _kernel_sweep(
    prepared: PreparedTree, engines: list[SchedulerEngine]
) -> tuple[np.ndarray, ...]:
    """Sweep engines of one kernel-exact tree in a single C kernel call.

    Stacks the per-scenario parameters (p, memory mode, rank ids, sigma
    ids) and returns the :func:`batch_arrays` outputs ``(start, proc,
    status, resident)``, entry ``j`` belonging to ``engines[j]``
    (interpret it with :meth:`SchedulerEngine._finish_kernel`).
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
    from . import _ckernel

    _ckernel.batch_kernel(
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
    return out


def sweep_batch(
    tree: TaskTree | PreparedTree, scenarios: list[BatchScenario]
) -> BatchRun:
    """Sweep a whole scenario grid against one tree in one kernel call.

    Stacks the per-scenario parameters (p, memory mode, rank ids, sigma
    ids) and dispatches a single batched C kernel call that sweeps the
    scenarios one after another. Per-scenario results are
    **bit-identical** to running each scenario through
    :class:`SchedulerEngine` individually: scenarios share only
    read-only columns and each sweeps over private scratch.

    Where :meth:`SchedulerEngine.run` would take the reference loop --
    the process chose it, or the tree's integral weights reach 2**53 and
    float64 event keys lose exactness -- every scenario runs
    :meth:`SchedulerEngine.run_reference` instead.
    """
    prepared = as_prepared(tree)
    engines = [sc.engine(prepared) for sc in scenarios]
    backend = "c" if prepared.kernel_exact and resolve_backend() == "c" else "python"
    rows = _kernel_sweep(prepared, engines) if backend == "c" and engines else None
    outcomes: list[Schedule | Exception] = []
    for j, e in enumerate(engines):
        try:
            if rows is None:
                outcomes.append(e.run_reference())
            else:
                outcomes.append(e._finish_kernel(*(row[j] for row in rows)))
        except (MemoryCapError, ValueError, MemoryError) as exc:
            outcomes.append(exc)
    return BatchRun(outcomes=outcomes, backend=backend)
