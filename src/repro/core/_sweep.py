"""Backend-neutral event-sweep kernel for :class:`repro.core.engine.SchedulerEngine`.

This module pins down the *kernel spec* shared by every engine backend:
one function over typed, C-contiguous numpy arrays that executes the
whole event-driven list-scheduling sweep with **no Python objects in the
hot loop** -- array-based binary heaps instead of ``heapq``, integer
node ids instead of tuples. The same spec is executed two ways:

* ``backend="kernel"`` -- the functions below interpreted by CPython
  (slow; exists so the kernel *logic* is unit-testable even where no
  compiler is available);
* ``backend="c"``      -- a line-for-line C translation
  (:mod:`repro.core._ckernel`) built on demand with the system
  toolchain.

Kernel spec
-----------
Arrays in (all C-contiguous, ``int64``/``float64``):

``parent``
    in-tree parent vector (root = -1).
``pending``
    per-node count of incomplete children, i.e. ``np.diff(child_ptr)``
    of the CSR children structure; **mutated** by the sweep.
``w``
    task durations.
``rank`` / ``byrank``
    priority permutation and its inverse (``byrank[rank[i]] == i``).
``mode`` / ``cap_eps``
    0 = no memory cap; 1 = strict activation order; 2 = opportunistic.
    ``cap_eps`` is the cap plus the engine's feasibility epsilon.
``alloc`` / ``free_on_end`` / ``sigma``
    memory acquired at start / released at completion per node, and the
    activation order (``sigma`` may be empty when ``mode == 0``).

Arrays out:

``start`` / ``end_out`` / ``proc``
    start time, completion time and processor of every task
    (``start``/``proc`` must be initialised to -1).
``activation``
    the k-th entry is the k-th task to *start* (chronological, ties
    resolved exactly as the reference backend resolves them).
``mem_trace``
    resident memory immediately after each start, aligned with
    ``activation`` -- the peak-memory trace of the sweep
    (``mem_trace.max()`` is the schedule's peak for capped modes).
``status`` (``int64[2]``)
    ``status[0]``: 0 = ok, 1 = memory cap infeasible, 2 = strict-mode
    rank/activation mismatch, 3 = deadlock (defensive), 4 = scratch
    allocation failure (C only); ``status[1]``: the offending node for
    codes 1-2.
``finals`` (``float64[2]``)
    final simulation time (= makespan) and final resident memory.

Equivalence contract
--------------------
The kernel must produce **bit-identical** outputs to the pure-Python
reference backend in :mod:`repro.core.engine`. Floating point makes
this subtle in two places, both resolved by construction:

* *Event keys.* The reference backend encodes events of integral-weight
  trees as exact integers ``end * n + node``; the kernel always uses a
  ``(float64 end, int64 node)`` pair heap. The two orders coincide
  whenever every completion time is exactly representable as a float64,
  which the engine guarantees before selecting a kernel backend (it
  falls back to the reference loop for integral weights whose total
  exceeds 2**53 -- see ``SchedulerEngine.run``).
* *Memory accounting.* ``mem`` is accumulated with the same
  adds/subtracts in the same chronological order as the reference loop,
  so capped-mode feasibility decisions (and ``mem_trace``) match bit
  for bit.

Heap pop order is determined by the key order alone -- ready entries
are bare ranks (a permutation, hence unique) and running entries carry
the node id as tie-break -- so an array-based binary heap reproduces
``heapq`` exactly without mimicking its internals.

Batched spec
------------
:func:`batch_sweep` is the entry point every kernel backend exposes:
it extends the kernel spec to a whole scenario grid over **one tree**
in a single call (a single engine run is a grid of one). Stacked
per-scenario parameters go in (``ps``/``modes``/``cap_eps`` per
scenario, priority ranks and activation orders deduplicated into
``(R, n)`` / ``(K, n)`` stacks and referenced by ``rank_id`` /
``sigma_id``; ``sigma_id < 0`` means uncapped), stacked ``(S, n)``
result arrays come out. The read-only ``pending0`` child counts are
copied privately per scenario, so scenarios are fully independent and
sweep serially, one after another, in scenario order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SweepResult", "batch_arrays", "batch_sweep", "event_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """The kernel spec's output arrays for one completed sweep."""

    start: np.ndarray
    end: np.ndarray
    proc: np.ndarray
    activation: np.ndarray
    mem_trace: np.ndarray
    now: float
    mem: float


def batch_arrays(nscen: int, n: int) -> tuple[np.ndarray, ...]:
    """Freshly initialised stacked output arrays for one batched kernel
    invocation over ``nscen`` scenarios, ``(start, end_out, proc,
    activation, mem_trace, status, finals)``: row ``s`` of each is
    scenario ``s``'s output."""
    return (
        np.full((nscen, n), -1.0, dtype=np.float64),
        np.empty((nscen, n), dtype=np.float64),
        np.full((nscen, n), -1, dtype=np.int64),
        np.empty((nscen, n), dtype=np.int64),
        np.empty((nscen, n), dtype=np.float64),
        np.zeros((nscen, 2), dtype=np.int64),
        np.zeros((nscen, 2), dtype=np.float64),
    )


# ----------------------------------------------------------------------
# array-based binary heaps (min-heaps; pop order == heapq pop order
# because all keys are unique -- see module docstring)
# ----------------------------------------------------------------------
def _push_int(heap, size, val):
    """Insert ``val`` into the int64 min-heap of ``size`` elements."""
    i = size
    while i > 0:
        up = (i - 1) >> 1
        if heap[up] > val:
            heap[i] = heap[up]
            i = up
        else:
            break
    heap[i] = val


def _pop_int(heap, size):
    """Remove and return the minimum of the int64 heap of ``size``."""
    top = heap[0]
    m = size - 1
    last = heap[m]
    i = 0
    while True:
        child = 2 * i + 1
        if child >= m:
            break
        right = child + 1
        if right < m and heap[right] < heap[child]:
            child = right
        if heap[child] < last:
            heap[i] = heap[child]
            i = child
        else:
            break
    if m > 0:
        heap[i] = last
    return top


def _push_run(keys, nodes, size, k, v):
    """Insert event ``(k, v)`` into the (float64 key, int64 node) heap."""
    i = size
    while i > 0:
        up = (i - 1) >> 1
        uk = keys[up]
        uv = nodes[up]
        if k < uk or (k == uk and v < uv):
            keys[i] = uk
            nodes[i] = uv
            i = up
        else:
            break
    keys[i] = k
    nodes[i] = v


def _pop_run(keys, nodes, size):
    """Remove and return the minimum event ``(key, node)`` of the heap."""
    top_k = keys[0]
    top_v = nodes[0]
    m = size - 1
    lk = keys[m]
    lv = nodes[m]
    i = 0
    while True:
        child = 2 * i + 1
        if child >= m:
            break
        right = child + 1
        if right < m and (
            keys[right] < keys[child]
            or (keys[right] == keys[child] and nodes[right] < nodes[child])
        ):
            child = right
        ck = keys[child]
        cv = nodes[child]
        if ck < lk or (ck == lk and cv < lv):
            keys[i] = ck
            nodes[i] = cv
            i = child
        else:
            break
    if m > 0:
        keys[i] = lk
        nodes[i] = lv
    return top_k, top_v


# ----------------------------------------------------------------------
# the event sweep itself
# ----------------------------------------------------------------------
def event_sweep(
    parent,
    pending,
    w,
    rank,
    byrank,
    p,
    mode,
    cap_eps,
    alloc,
    free_on_end,
    sigma,
    start,
    end_out,
    proc,
    activation,
    mem_trace,
    status,
    finals,
):
    """Execute one full event sweep (see module docstring for the spec).

    Mirrors ``SchedulerEngine._run_python`` statement for statement;
    any behavioural change must be made in both and is pinned by the
    cross-backend golden tests.
    """
    n = parent.shape[0]
    ready = np.empty(n, dtype=np.int64)
    run_key = np.empty(n, dtype=np.float64)
    run_node = np.empty(n, dtype=np.int64)
    skipped = np.empty(n, dtype=np.int64)
    free_stack = np.empty(p, dtype=np.int64)
    for q in range(p):
        free_stack[q] = p - 1 - q  # pop from the tail => processor 0 first
    free_count = p
    ready_size = 0
    for i in range(n):
        if pending[i] == 0:
            _push_int(ready, ready_size, rank[i])
            ready_size += 1
    run_size = 0
    now = 0.0
    mem = 0.0
    started = 0
    next_sigma = 0
    while True:
        # Start every task the policy allows on the idle processors.
        while free_count > 0 and ready_size > 0:
            if mode == 0:
                node = byrank[_pop_int(ready, ready_size)]
                ready_size -= 1
            elif mode == 1:
                node = sigma[next_sigma]
                if pending[node] > 0 or mem + alloc[node] > cap_eps:
                    break
                r = _pop_int(ready, ready_size)
                ready_size -= 1
                if r != rank[node]:
                    status[0] = 2
                    status[1] = node
                    return
            else:
                node = -1
                nskip = 0
                while ready_size > 0:
                    r = _pop_int(ready, ready_size)
                    ready_size -= 1
                    cand = byrank[r]
                    if mem + alloc[cand] <= cap_eps:
                        node = cand
                        break
                    skipped[nskip] = r
                    nskip += 1
                for k in range(nskip):
                    _push_int(ready, ready_size, skipped[k])
                    ready_size += 1
                if node < 0:
                    break
            free_count -= 1
            q = free_stack[free_count]
            start[node] = now
            proc[node] = q
            t_end = now + w[node]
            end_out[node] = t_end
            _push_run(run_key, run_node, run_size, t_end, node)
            run_size += 1
            mem += alloc[node]
            activation[started] = node
            mem_trace[started] = mem
            started += 1
            if mode != 0:
                while next_sigma < n and start[sigma[next_sigma]] >= 0.0:
                    next_sigma += 1
        if run_size == 0:
            if started >= n:
                break
            if mode != 0:
                status[0] = 1
                status[1] = sigma[next_sigma]
                finals[0] = now
                finals[1] = mem
                return
            status[0] = 3  # deadlock: tasks left but no event pending
            status[1] = -1
            return
        # Advance to the next completion event; apply every completion
        # at that instant before assigning again.
        now, node = _pop_run(run_key, run_node, run_size)
        run_size -= 1
        while True:
            free_stack[free_count] = proc[node]
            free_count += 1
            mem -= free_on_end[node]
            par = parent[node]
            if par >= 0:
                if pending[par] == 1:
                    pending[par] = 0
                    _push_int(ready, ready_size, rank[par])
                    ready_size += 1
                else:
                    pending[par] -= 1
            if run_size == 0:
                break
            if run_key[0] == now:
                node = _pop_run(run_key, run_node, run_size)[1]
                run_size -= 1
            else:
                break
    status[0] = 0
    status[1] = n
    finals[0] = now
    finals[1] = mem


# ----------------------------------------------------------------------
# the batched sweep: one call per scenario grid
# ----------------------------------------------------------------------
def batch_sweep(
    parent,
    pending0,
    w,
    ranks,
    byranks,
    rank_id,
    ps,
    modes,
    cap_eps,
    alloc,
    free_on_end,
    sigmas,
    sigma_id,
    start,
    end_out,
    proc,
    activation,
    mem_trace,
    status,
    finals,
):
    """Sweep every scenario of a grid against one tree (batched spec).

    Scenario ``s`` runs :func:`event_sweep` with priority rank row
    ``ranks[rank_id[s]]`` (inverse ``byranks[rank_id[s]]``), processor
    count ``ps[s]``, memory mode ``modes[s]`` / ``cap_eps[s]`` and
    activation order ``sigmas[sigma_id[s]]`` (``sigma_id[s] < 0`` =
    uncapped; ``sigmas`` always holds at least one row so the dummy
    empty slice types consistently). ``pending0`` is the pristine child
    counts, copied privately per scenario, so scenarios are fully
    independent.
    """
    nscen = ps.shape[0]
    for s in range(nscen):
        pending = pending0.copy()
        rid = rank_id[s]
        sid = sigma_id[s]
        if sid >= 0:
            sigma = sigmas[sid]
        else:
            sigma = sigmas[0][:0]
        event_sweep(
            parent,
            pending,
            w,
            ranks[rid],
            byranks[rid],
            ps[s],
            modes[s],
            cap_eps[s],
            alloc,
            free_on_end,
            sigma,
            start[s],
            end_out[s],
            proc[s],
            activation[s],
            mem_trace[s],
            status[s],
            finals[s],
        )

