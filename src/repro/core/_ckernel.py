"""The compiled library: the C event sweep of
:class:`repro.core.engine.SchedulerEngine` and the exact memory profile
of :func:`repro.core.simulator.memory_profile`.

The sweep is a line-for-line C translation of the engine's pure-Python
reference loop (:meth:`~repro.core.engine.SchedulerEngine.run_reference`)
over typed, C-contiguous numpy arrays -- array-based binary heaps
instead of ``heapq``, integer node ids instead of tuples, no Python
objects in the hot loop. The library is compiled on demand with the
system toolchain (``cc``/``gcc``/``clang``) into a shared library cached
under the user cache directory (override with ``REPRO_KERNEL_CACHE``)
and loaded via :mod:`ctypes`. It is strictly optional: when no
toolchain is available (or the compile fails) :func:`available` returns
False and the engine sweeps on the reference loop instead, and the
simulator measures on its numpy reference.

The library exports two entry points, both serial, and ctypes releases
the GIL for the duration of either call:

* ``batch_event_sweep``: a loop over the scenarios of a grid against
  one tree, every scenario swept over the same malloc'd scratch arena
  (heaps plus a private ``pending`` copy refilled per scenario). A
  single engine run is a grid of one.
* ``memory_profile``: the piecewise-constant memory profile of one
  schedule (see *Memory profile spec* below).

Sweep kernel spec
-----------------
The arguments of :func:`batch_kernel`, grouped by role (its signature
gives the order). Tree columns (C-contiguous ``int64``/``float64``,
read-only):

``parent``
    in-tree parent vector (root = -1).
``pending0``
    per-node count of incomplete children, i.e. ``np.diff(child_ptr)``
    of the CSR children structure; copied privately per scenario.
``w``
    task durations.
``alloc`` / ``free_on_end``
    memory acquired at start / released at completion per node.

Stacked per-scenario parameters (``S`` scenarios):

``ranks`` / ``byranks`` / ``rank_id``
    ``(R, n)`` stacks of priority permutations and their inverses
    (``byrank[rank[i]] == i``); scenario ``s`` reads row ``rank_id[s]``.
``ps``
    processor counts.
``modes`` / ``cap_eps``
    0 = no memory cap; 1 = strict activation order; 2 = opportunistic.
    ``cap_eps`` is the cap plus the engine's feasibility epsilon.
``sigmas`` / ``sigma_id``
    ``(K, n)`` stack of activation orders; scenario ``s`` reads row
    ``sigma_id[s]``, or none when uncapped (``sigma_id[s] < 0``;
    ``sigmas`` always holds at least one row).

Stacked outputs, row ``s`` belonging to scenario ``s``
(:func:`repro.core.engine.batch_arrays` allocates them) -- the schedule
itself, 16 bytes per (scenario, task), and nothing of how it was built:

``start`` / ``proc``
    start time and processor of every task (both must be initialised
    to -1).
``status`` (``int64[2]`` per scenario)
    ``status[0]``: 0 = ok, 1 = memory cap infeasible, 2 = strict-mode
    rank/activation mismatch, 3 = deadlock (defensive), 4 = scratch
    allocation failure; ``status[1]``: the offending node for codes 1-2.
``resident`` (``float64`` per scenario)
    resident memory when the sweep stopped (codes 0-1); the
    infeasible-cap message reports it.

Scenarios share only the read-only columns and sweep serially, one
after another, in scenario order.

Memory profile spec
-------------------
``memory_profile(n, start, w, alloc, freed, times_out, levels_out) ->
m`` (:func:`memory_profile` here wraps it). Task ``i`` allocates
``alloc[i]`` (``n_i + f_i``) at ``start[i]`` and frees ``freed[i]``
(``n_i`` plus its children's outputs) at ``end = start[i] + w[i]``,
the double add of ``Schedule.end``. The library

1. keys every start and every end by an order-preserving ``uint64``
   (``-0.0`` folded into ``+0.0``, which numpy compares equal);
2. radix-sorts the two lists of ``(key, delta)`` events stably (LSD,
   digits of at most 11 bits, only the bits in which some key differs),
   so equal instants keep ascending node order;
3. merges them: per distinct instant, its frees in ascending node
   index, then its allocations in ascending node index, ``level +=
   delta`` one event at a time -- exactly ``np.cumsum`` over the stable
   ``lexsort((phase, time))`` of the reference;
4. writes one ``(instant, level)`` pair per instant into the ``2n``-
   entry outputs and returns their number ``m``.

It returns ``-1`` when its scratch cannot be allocated and ``-2`` on a
non-finite start; the simulator then takes its numpy reference path.

Equivalence contract
--------------------
The kernel must produce **bit-identical** outputs to the reference
loop; any behavioural change must be made in both and is pinned by
``tests/core/test_backends.py``. Floating point makes this subtle in
two places, both resolved by construction:

* *Event keys.* The reference loop encodes events of integral-weight
  trees as exact integers ``end * n + node``; the kernel always uses a
  ``(float64 end, int64 node)`` pair heap. The two orders coincide
  whenever every completion time is exactly representable as a float64,
  which the engine checks before dispatching here (it keeps the
  reference loop for integral weights whose total reaches 2**53; see
  ``PreparedTree.kernel_exact``).
* *Memory accounting.* ``mem`` is accumulated with the same
  adds/subtracts in the same chronological order as the reference loop,
  so capped-mode feasibility decisions match bit for bit.

The memory profile holds the bytes of the numpy reference
(``simulator._memory_profile_reference``, pinned by
``tests/core/test_simulator.py``) for the same reason: the same adds in
the same order. Its ``level`` starts at ``-0.0``, the additive identity,
so even a leading ``-0.0`` delta reproduces ``cumsum``'s first element.

Both exports depend on every floating-point operation being rounded on
its own, as numpy and CPython round it. ``_FLAGS`` therefore pins
``-ffp-contract=off``: a compiler may otherwise fuse ``a * b + c`` into
one fused multiply-add with a single rounding (GCC's default in GNU C
mode is ``-ffp-contract=fast``, which fuses on any target with FMA
instructions), which silently changes the last bit of a sum and with
it a schedule or a peak. No fused operation may enter either
export.

Heap pop order is determined by the key order alone -- ready entries
are bare ranks (a permutation, hence unique) and running entries carry
the node id as tie-break -- so an array-based binary heap reproduces
``heapq`` exactly without mimicking its internals.

Build cache
-----------
The build is keyed by a hash of the C source and the compiler flags, so
editing the kernel invalidates the cache automatically and concurrent
processes converge on the same artifact: the source is written to a
unique temporary name and atomically renamed, the compile output
likewise, and a stale-lock-tolerant ``.lock`` guard elects one builder
while the others wait for the artifact to appear (a crashed builder's
lock is broken once it goes stale, and a lock wait that times out
simply compiles redundantly -- ``os.replace`` keeps that correct).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = [
    "available",
    "unavailable_reason",
    "batch_kernel",
    "memory_profile",
    "cache_dir",
]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* array-based binary min-heaps; pop order == heapq pop order because
 * all keys are unique (ready entries are a rank permutation, running
 * entries carry the node id as tie-break) */

static void push_int(int64_t *heap, int64_t size, int64_t val)
{
    int64_t i = size;
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        if (heap[up] > val) {
            heap[i] = heap[up];
            i = up;
        } else {
            break;
        }
    }
    heap[i] = val;
}

static int64_t pop_int(int64_t *heap, int64_t size)
{
    int64_t top = heap[0];
    int64_t m = size - 1;
    int64_t last = heap[m];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        int64_t right;
        if (child >= m)
            break;
        right = child + 1;
        if (right < m && heap[right] < heap[child])
            child = right;
        if (heap[child] < last) {
            heap[i] = heap[child];
            i = child;
        } else {
            break;
        }
    }
    if (m > 0)
        heap[i] = last;
    return top;
}

static void push_run(double *keys, int64_t *nodes, int64_t size,
                     double k, int64_t v)
{
    int64_t i = size;
    while (i > 0) {
        int64_t up = (i - 1) >> 1;
        double uk = keys[up];
        int64_t uv = nodes[up];
        if (k < uk || (k == uk && v < uv)) {
            keys[i] = uk;
            nodes[i] = uv;
            i = up;
        } else {
            break;
        }
    }
    keys[i] = k;
    nodes[i] = v;
}

static void pop_run(double *keys, int64_t *nodes, int64_t size,
                    double *out_k, int64_t *out_v)
{
    double top_k = keys[0];
    int64_t top_v = nodes[0];
    int64_t m = size - 1;
    double lk = keys[m];
    int64_t lv = nodes[m];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        int64_t right;
        double ck;
        int64_t cv;
        if (child >= m)
            break;
        right = child + 1;
        if (right < m && (keys[right] < keys[child] ||
                          (keys[right] == keys[child] &&
                           nodes[right] < nodes[child])))
            child = right;
        ck = keys[child];
        cv = nodes[child];
        if (ck < lk || (ck == lk && cv < lv)) {
            keys[i] = ck;
            nodes[i] = cv;
            i = child;
        } else {
            break;
        }
    }
    if (m > 0) {
        keys[i] = lk;
        nodes[i] = lv;
    }
    *out_k = top_k;
    *out_v = top_v;
}

/* One event sweep over caller-provided scratch (heaps sized n and a
 * free-processor stack sized >= p); returns status[0]. */
static int64_t event_sweep(int64_t n, int64_t p,
                    const int64_t *parent, int64_t *pending,
                    const double *w,
                    const int64_t *rank, const int64_t *byrank,
                    int64_t mode, double cap_eps,
                    const double *alloc, const double *free_on_end,
                    const int64_t *sigma,
                    double *start, int64_t *proc,
                    int64_t *status, double *resident,
                    int64_t *ready, double *run_key, int64_t *run_node,
                    int64_t *skipped, int64_t *free_stack)
{
    int64_t free_count, ready_size, run_size, started, next_sigma, i, q;
    double now, mem;

    for (q = 0; q < p; q++)
        free_stack[q] = p - 1 - q; /* pop from the tail => proc 0 first */
    free_count = p;
    ready_size = 0;
    for (i = 0; i < n; i++) {
        if (pending[i] == 0)
            push_int(ready, ready_size++, rank[i]);
    }
    run_size = 0;
    now = 0.0;
    mem = 0.0;
    started = 0;
    next_sigma = 0;
    for (;;) {
        /* start every task the policy allows on the idle processors */
        while (free_count > 0 && ready_size > 0) {
            int64_t node;
            double t_end;
            if (mode == 0) {
                node = byrank[pop_int(ready, ready_size--)];
            } else if (mode == 1) {
                int64_t r;
                node = sigma[next_sigma];
                if (pending[node] > 0 || mem + alloc[node] > cap_eps)
                    break;
                r = pop_int(ready, ready_size--);
                if (r != rank[node]) {
                    status[0] = 2;
                    status[1] = node;
                    return status[0];
                }
            } else {
                int64_t nskip = 0, k;
                node = -1;
                while (ready_size > 0) {
                    int64_t r = pop_int(ready, ready_size--);
                    int64_t cand = byrank[r];
                    if (mem + alloc[cand] <= cap_eps) {
                        node = cand;
                        break;
                    }
                    skipped[nskip++] = r;
                }
                for (k = 0; k < nskip; k++)
                    push_int(ready, ready_size++, skipped[k]);
                if (node < 0)
                    break;
            }
            q = free_stack[--free_count];
            start[node] = now;
            proc[node] = q;
            t_end = now + w[node];
            push_run(run_key, run_node, run_size++, t_end, node);
            mem += alloc[node];
            started++;
            if (mode != 0) {
                while (next_sigma < n && start[sigma[next_sigma]] >= 0.0)
                    next_sigma++;
            }
        }
        if (run_size == 0) {
            if (started >= n)
                break;
            if (mode != 0) {
                status[0] = 1;
                status[1] = sigma[next_sigma];
                *resident = mem;
                return status[0];
            }
            status[0] = 3; /* deadlock (defensive) */
            status[1] = -1;
            return status[0];
        }
        /* advance to the next completion event; apply every completion
         * at that instant before assigning again */
        {
            int64_t node;
            pop_run(run_key, run_node, run_size--, &now, &node);
            for (;;) {
                int64_t par;
                free_stack[free_count++] = proc[node];
                mem -= free_on_end[node];
                par = parent[node];
                if (par >= 0) {
                    if (pending[par] == 1) {
                        pending[par] = 0;
                        push_int(ready, ready_size++, rank[par]);
                    } else {
                        pending[par]--;
                    }
                }
                if (run_size == 0)
                    break;
                if (run_key[0] == now) {
                    double ignored;
                    pop_run(run_key, run_node, run_size--, &ignored, &node);
                } else {
                    break;
                }
            }
        }
    }
    status[0] = 0;
    status[1] = n;
    *resident = mem;
    return status[0];
}

/* The batched kernel spec (see the module docstring): one
 * call sweeps every scenario of a grid against the same tree, in
 * scenario order, over one scratch arena. Scenario s reads rank row
 * rank_id[s] of the (R x n) ranks/byranks stacks and (when capped,
 * sigma_id[s] >= 0) sigma row sigma_id[s] of the (K x n) sigmas stack,
 * and writes row s of the (S x n) start/proc stacks plus its status pair
 * and resident memory. Returns 1 when the scratch arena could not be
 * allocated (every status row then says 4). */
int64_t batch_event_sweep(int64_t n, int64_t nscen, int64_t max_p,
                    const int64_t *parent, const int64_t *pending0,
                    const double *w,
                    const int64_t *ranks, const int64_t *byranks,
                    const int64_t *rank_id,
                    const int64_t *ps, const int64_t *modes,
                    const double *cap_eps,
                    const double *alloc, const double *free_on_end,
                    const int64_t *sigmas, const int64_t *sigma_id,
                    double *start, int64_t *proc,
                    int64_t *status, double *resident)
{
    int64_t *pending = malloc((size_t)n * sizeof(int64_t));
    int64_t *ready = malloc((size_t)n * sizeof(int64_t));
    double *run_key = malloc((size_t)n * sizeof(double));
    int64_t *run_node = malloc((size_t)n * sizeof(int64_t));
    int64_t *skipped = malloc((size_t)n * sizeof(int64_t));
    int64_t *free_stack = malloc((size_t)max_p * sizeof(int64_t));
    int64_t ok = pending && ready && run_key && run_node &&
                 skipped && free_stack;
    int64_t s;
    for (s = 0; s < nscen; s++) {
        if (!ok) {
            status[2 * s] = 4; /* allocation failure */
            status[2 * s + 1] = -1;
            continue;
        }
        memcpy(pending, pending0, (size_t)n * sizeof(int64_t));
        event_sweep(n, ps[s], parent, pending, w,
                    ranks + rank_id[s] * n,
                    byranks + rank_id[s] * n,
                    modes[s], cap_eps[s], alloc, free_on_end,
                    sigma_id[s] >= 0 ? sigmas + sigma_id[s] * n : sigmas,
                    start + s * n, proc + s * n,
                    status + 2 * s, resident + s,
                    ready, run_key, run_node, skipped, free_stack);
    }
    free(pending);
    free(ready);
    free(run_key);
    free(run_node);
    free(skipped);
    free(free_stack);
    return !ok;
}

/* ---- the exact memory profile (see the module docstring) ---- */

/* one event of the profile: the order-preserving key of its instant and
 * the memory it allocates (start list) or frees (end list) */
typedef struct {
    uint64_t key;
    double delta;
} event_t;

#define MAX_DIGIT_BITS 11
#define ZERO_KEY 0x8000000000000000ULL

/* Order-preserving unsigned key of a non-NaN double: a < b exactly when
 * key(a) < key(b). -0.0 folds into +0.0 (ZERO_KEY): numpy compares them
 * equal, so they are one instant. */
static uint64_t time_key(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    if ((u << 1) == 0)
        u = 0;
    return (u >> 63) ? ~u : (u | ZERO_KEY);
}

/* The double of a key other than ZERO_KEY (the key is a bijection there). */
static double key_time(uint64_t k)
{
    uint64_t u = (k >> 63) ? (k & ~ZERO_KEY) : ~k;
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* The widest radix digit for n events: the bit length of n, at most
 * MAX_DIGIT_BITS -- about n buckets, so that clearing and scanning the
 * counts costs no more than moving the events. */
static int digit_width(int64_t n)
{
    int width = 1;
    while (width < MAX_DIGIT_BITS && (n >> width) > 0)
        width++;
    return width;
}

/* Stable LSD radix sort of the n events of ev by key, in place, so
 * equal keys keep their input (node) order. Only the bit span in which
 * some key differs from the first is sorted, in the fewest digits of
 * at most `width` bits each, ping-ponging through tmp (n events). hist
 * needs room for 2**width counts per digit of a 64-bit key. */
static void radix_sort(int64_t n, int width, event_t *ev, event_t *tmp,
                       int64_t *hist)
{
    uint64_t diff = 0, k0 = ev[0].key;
    int lo = 0, hi = 63, passes, bits, d;
    int64_t i, buckets, mask;
    event_t *src = ev, *dst = tmp;
    for (i = 0; i < n; i++)
        diff |= ev[i].key ^ k0;
    if (diff == 0)
        return;
    while (!((diff >> lo) & 1))
        lo++;
    while (!((diff >> hi) & 1))
        hi--;
    passes = (hi - lo + width) / width;
    bits = (hi - lo + passes) / passes;
    buckets = (int64_t)1 << bits;
    mask = buckets - 1;
    memset(hist, 0, (size_t)(passes * buckets) * sizeof(int64_t));
    for (i = 0; i < n; i++) {
        uint64_t k = ev[i].key >> lo;
        for (d = 0; d < passes; d++)
            hist[d * buckets + ((k >> (d * bits)) & mask)]++;
    }
    for (d = 0; d < passes; d++) {
        int64_t *h = hist + d * buckets;
        int shift = lo + d * bits;
        event_t *swap;
        int64_t b, sum = 0;
        for (b = 0; b < buckets; b++) {
            int64_t c = h[b];
            h[b] = sum;
            sum += c;
        }
        for (i = 0; i < n; i++)
            dst[h[(src[i].key >> shift) & mask]++] = src[i];
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ev)
        memcpy(ev, src, (size_t)n * sizeof(event_t));
}

/* The instant 0 as the reference keeps it: the time of its last event
 * as stored, which may be -0.0 -- the highest-index task starting at 0,
 * else the highest-index task ending at 0. */
static double zero_time(int64_t n, const double *start, const double *w)
{
    int64_t i;
    for (i = n - 1; i >= 0; i--) {
        if (start[i] == 0.0)
            return start[i];
    }
    for (i = n - 1; i >= 0; i--) {
        if (start[i] + w[i] == 0.0)
            return start[i] + w[i];
    }
    return 0.0;
}

/* The piecewise-constant memory profile of a schedule: for every
 * distinct instant (ascending), the resident memory from that instant
 * on. Task i allocates alloc[i] at start[i] and frees freed[i] at
 * start[i] + w[i]; at one instant the frees apply first, then the
 * allocations, each phase in ascending node index, one event at a time
 * -- the order and the adds of np.cumsum over the stable
 * lexsort((phase, time)) of the reference. times_out gets the instant
 * as the reference stores it, levels_out the level after its last
 * event; both need room for 2n entries. Returns the number of
 * instants, -1 when the scratch could not be allocated, -2 on a
 * non-finite start. */
int64_t memory_profile(int64_t n, const double *start, const double *w,
                       const double *alloc, const double *freed,
                       double *times_out, double *levels_out)
{
    int width = digit_width(n);
    event_t *buf, *sev, *eev;
    int64_t *hist;
    int64_t i, ia, ib, m;
    double level;
    for (i = 0; i < n; i++) {
        if (!isfinite(start[i]))
            return -2;
    }
    buf = malloc((size_t)(2 * n) * sizeof(event_t) +
                 ((size_t)(64 + width - 1) / width << width) * sizeof(int64_t));
    if (!buf)
        return -1;
    sev = buf;
    eev = buf + n;
    hist = (int64_t *)(buf + 2 * n);
    for (i = 0; i < n; i++) {
        sev[i].key = time_key(start[i]);
        sev[i].delta = alloc[i];
        eev[i].key = time_key(start[i] + w[i]);
        eev[i].delta = freed[i];
    }
    /* times_out (2n doubles, written only by the merge) is the sorts'
     * ping-pong buffer of n events */
    radix_sort(n, width, sev, (event_t *)times_out, hist);
    radix_sort(n, width, eev, (event_t *)times_out, hist);
    ia = ib = m = 0;
    level = -0.0; /* x + -0.0 == x for every x: the first level is the
                   * first delta, as in cumsum, also for a -0.0 delta */
    while (ia < n || ib < n) {
        uint64_t t;
        if (ib < n && (ia >= n || eev[ib].key <= sev[ia].key))
            t = eev[ib].key;
        else
            t = sev[ia].key;
        for (; ib < n && eev[ib].key == t; ib++)
            level -= eev[ib].delta;
        for (; ia < n && sev[ia].key == t; ia++)
            level += sev[ia].delta;
        times_out[m] = t == ZERO_KEY ? zero_time(n, start, w) : key_time(t);
        levels_out[m] = level;
        m++;
    }
    free(buf);
    return m;
}
"""

_F64 = ndpointer(dtype=np.float64, flags=("C_CONTIGUOUS",))
_I64 = ndpointer(dtype=np.int64, flags=("C_CONTIGUOUS",))

#: compiler flags of the one build; ``-ffp-contract=off`` keeps every
#: floating-point operation separately rounded (see the module docstring)
_FLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]

#: build cache: None = not attempted, else ``(library or None, reason)``
_BUILD: tuple | None = None


def cache_dir() -> str:
    """Directory holding the compiled kernel shared libraries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-trees")


def _cache_key() -> str:
    """Cache key of the build: kernel source *and* compiler flags."""
    payload = _SOURCE + "\n// flags: " + " ".join(_FLAGS)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _lib_path() -> str:
    """Where the compiled library lives in :func:`cache_dir`."""
    return os.path.join(cache_dir(), f"event_sweep_{_cache_key()}.so")


#: a build lock untouched for this long is considered the residue of a
#: crashed builder and is broken (compiles are bounded to 120 s)
_LOCK_STALE_SECONDS = 150.0

#: how long a loser waits for the winner's artifact before giving up
#: and compiling redundantly (still correct: artifacts land atomically)
_LOCK_WAIT_SECONDS = 150.0


def _acquire_build_lock(lock_path: str) -> bool:
    """Try to become the builder; True when this process holds the lock.

    The lock is an ``O_EXCL``-created file stamped with the builder's
    pid. A stale lock (older than :data:`_LOCK_STALE_SECONDS` -- a
    builder that crashed or was SIGKILLed mid-compile) is unlinked and
    the acquisition retried once, so one dead process can never wedge
    every future compile.
    """
    for _ in range(2):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                if time.time() - os.stat(lock_path).st_mtime > _LOCK_STALE_SECONDS:
                    os.unlink(lock_path)  # stale: break it and retry
                    continue
            except OSError:
                pass  # raced: someone else broke or released it
            return False
        except OSError:  # pragma: no cover - unwritable cache dir
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return True
    return False


def _compile_one(cc: str, lib_path: str) -> str:
    """Build ``lib_path``; returns an error string (empty on success).

    Concurrent-safe: the source and the compiled library are both
    written to unique temporary names and atomically renamed into
    place, and a lock file elects one builder per artifact -- losers
    wait for the winner's artifact instead of clobbering the shared
    source mid-compile (the first-compile race of two pool workers
    starting on a cold cache). A waiting process whose winner never
    delivers (crash; stale lock) falls back to compiling itself.
    """
    directory = os.path.dirname(lib_path)
    tmp_lib = tmp_src = None
    locked = False
    lock_path = lib_path + ".lock"
    try:
        os.makedirs(directory, exist_ok=True)
        locked = _acquire_build_lock(lock_path)
        if not locked:
            # Another process is building this exact artifact: wait for
            # it to land (or for the lock to vanish/go stale), then fall
            # through to a redundant-but-safe compile if it never does.
            deadline = time.time() + _LOCK_WAIT_SECONDS
            while time.time() < deadline:
                if os.path.exists(lib_path):
                    return ""
                locked = _acquire_build_lock(lock_path)
                if locked:
                    break  # winner vanished (or went stale): we build
                time.sleep(0.05)
        if os.path.exists(lib_path):
            return ""  # raced: the artifact landed while we acquired
        src_path = os.path.join(
            directory, os.path.basename(lib_path).replace(".so", ".c")
        )
        fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as fh:
            fh.write(_SOURCE)
        fd, tmp_lib = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        cmd = [cc, *_FLAGS, "-o", tmp_lib, tmp_src]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            return f"{cc} failed: {detail[-1] if detail else 'unknown error'}"
        os.replace(tmp_src, src_path)  # canonical source, for debugging
        tmp_src = None
        os.replace(tmp_lib, lib_path)  # atomic: racers converge
        tmp_lib = None
        return ""
    except (OSError, subprocess.SubprocessError) as exc:
        # a hung or broken toolchain must degrade to "unavailable",
        # never crash an engine run
        return f"kernel build failed: {exc}"
    finally:
        for leftover in (tmp_lib, tmp_src):
            if leftover is not None:
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        if locked:
            try:
                os.unlink(lock_path)
            except OSError:
                pass


def _compile() -> tuple:
    """Build (or reuse) the shared library; ``(library or None, reason)``."""
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    lib_path = _lib_path()
    if not os.path.exists(lib_path):
        error = _compile_one(cc, lib_path)
        if error:
            return None, error
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:  # pragma: no cover - corrupt cache entry
        return None, f"could not load {lib_path}: {exc}"
    batch = lib.batch_event_sweep
    batch.restype = ctypes.c_int64
    batch.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_int64,  # nscen
        ctypes.c_int64,  # max_p
        _I64,  # parent
        _I64,  # pending0 (read-only; copied per scenario in C)
        _F64,  # w
        _I64,  # ranks (R x n)
        _I64,  # byranks (R x n)
        _I64,  # rank_id (S)
        _I64,  # ps (S)
        _I64,  # modes (S)
        _F64,  # cap_eps (S)
        _F64,  # alloc
        _F64,  # free_on_end
        _I64,  # sigmas (K x n)
        _I64,  # sigma_id (S)
        _F64,  # start (S x n)
        _I64,  # proc (S x n)
        _I64,  # status (S x 2)
        _F64,  # resident (S)
    ]
    # raw addresses: an ndpointer check costs ~6 us per array, a fifth of
    # the whole profile of a small tree; memory_profile() below hands
    # over C-contiguous float64 columns only
    profile = lib.memory_profile
    profile.restype = ctypes.c_int64
    profile.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # start
        ctypes.c_void_p,  # w
        ctypes.c_void_p,  # alloc
        ctypes.c_void_p,  # freed
        ctypes.c_void_p,  # times_out (2n)
        ctypes.c_void_p,  # levels_out (2n)
    ]
    return lib, ""


def _ensure_built() -> tuple:
    global _BUILD
    if _BUILD is None:
        _BUILD = _compile()
    return _BUILD


def _injected_failure() -> bool:
    """True when a fault plan forces a compile failure (chaos testing).

    The hook sits here -- not in the engine -- so every consumer of the
    C kernel (the engine's ``probe_backend`` and so every dispatch)
    sees the same degraded world. A no-op without an active
    :mod:`repro.testing.faults` plan.
    """
    try:
        from repro.testing import faults
    except ImportError:  # pragma: no cover - broken partial install
        return False
    return faults.compile_failure()


def available() -> bool:
    """True when the C kernel compiled (or was already cached) and loaded."""
    if _injected_failure():
        return False
    return _ensure_built()[0] is not None


def unavailable_reason() -> str:
    """Why :func:`available` is False (empty string when available)."""
    if _injected_failure():
        return "injected compile failure (REPRO_FAULT_PLAN)"
    return _ensure_built()[1]


def batch_kernel(
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
    proc,
    status,
    resident,
):
    """Invoke the C kernel (argument order of the kernel spec in the
    module docstring).

    ctypes releases the GIL for the duration, so the whole grid sweeps
    without re-entering Python.
    """
    lib, reason = _ensure_built()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError(f"C kernel unavailable: {reason}")
    lib.batch_event_sweep(
        parent.shape[0],
        ps.shape[0],
        int(ps.max()) if ps.shape[0] else 1,
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
        proc,
        status,
        resident,
    )


def memory_profile(start, w, alloc, freed):
    """The exact memory profile on the C library: ``(times, levels)``,
    or None when the library declines (scratch allocation failure or a
    non-finite start; the caller then takes the reference path).

    Arguments are the ``float64`` columns of one schedule: task start
    times and durations, the memory each task allocates at start and
    frees at completion. The results are views of one ``(2, 2n)``
    output buffer.
    """
    lib, reason = _ensure_built()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError(f"C kernel unavailable: {reason}")
    cols = [np.ascontiguousarray(c, dtype=np.float64) for c in (start, w, alloc, freed)]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("memory_profile needs four columns of one length")
    out = np.empty((2, 2 * n), dtype=np.float64)
    times = ctypes.addressof(ctypes.c_char.from_buffer(out))
    m = lib.memory_profile(
        n, *(c.ctypes.data for c in cols), times, times + 16 * n
    )
    if m < 0:
        return None
    return out[0, :m], out[1, :m]
