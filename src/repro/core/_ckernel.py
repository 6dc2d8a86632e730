"""The compiled library: the C event sweep of
:class:`repro.core.engine.SchedulerEngine`, the exact memory profile of
:func:`repro.core.simulator.memory_profile`, Liu's optimal postorder of
:func:`repro.sequential.postorder.optimal_postorders` and Algorithm 2's
splitting of :meth:`repro.parallel.split_subtrees.SplitPlan.split`.

The sweep is a line-for-line C translation of the engine's pure-Python
reference loop (:meth:`~repro.core.engine.SchedulerEngine.run_reference`)
over typed, C-contiguous numpy arrays -- array-based binary heaps
instead of ``heapq``, integer node ids instead of tuples, no Python
objects in the hot loop; the other exports translate their Python paths
the same way. The library is compiled on demand with the
system toolchain (``cc``/``gcc``/``clang``) into a shared library cached
under the user cache directory (override with ``REPRO_KERNEL_CACHE``)
and loaded via :mod:`ctypes`. It is strictly optional: when no
toolchain is available (or the compile fails) :func:`available` returns
False and every caller takes its Python path instead: the engine sweeps
on the reference loop, the simulator measures on its numpy reference,
Liu's recurrence runs its per-node loop and the split its Python replay.

The library exports four entry points, all serial, and ctypes releases
the GIL for the duration of each call. Each takes ``int64`` scalars
and raw addresses: its Python wrapper here checks the dtype, the
C-contiguity and the shape of every array once (:func:`_address`; the
memory profile's converts its four columns instead), where an
``ndpointer`` argtype would cost ~6 us per array and call.

* ``batch_event_sweep``: a loop over the scenarios of a grid against
  one tree, every scenario swept over the same malloc'd scratch arena
  (heaps plus a private ``pending`` copy refilled per scenario). A
  single engine run is a grid of one.
* ``memory_profile``: the piecewise-constant memory profile of one
  schedule (see *Memory profile spec* below).
* ``postorder_peaks``: Liu's peaks and optimal postorders of one tree,
  for both tie orders (see *Postorder spec* below).
* ``split_subtrees``: Algorithm 2's minimum-cost splitting of one tree
  for one ``p`` (see *Split spec* below).

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

Postorder spec
--------------
``postorder_peaks(n, child_ptr, child_idx, post, f, sizes, peaks_asc,
peaks_desc, order_asc, order_desc) -> code`` (:func:`postorder_peaks`
here wraps it). ``child_ptr``/``child_idx`` are the tree's CSR
children (ascending node index within a parent) and ``post`` any
postorder (children before parents). One bottom-up pass over ``post``
computes, for both tie orders at once,

1. a leaf's peak ``sizes[i] + f[i]``;
2. an inner node's children sorted by the key ``M_j - f_j`` descending,
   equal keys by ascending node index (``*_asc``) or descending
   (``*_desc``) -- a total order, so the sort algorithm (insertion
   sort up to 16 children, ``qsort`` beyond) cannot change the result,
   and it is the order of the Python loop's stable ``sorted(...,
   reverse=True)``;
3. its peak with the loop's adds and ``max``: ``acc`` and ``best`` start
   at ``0.0``; per child ``best = max(best, acc + M_j)`` then ``acc +=
   f_j``; last ``max(best, (acc + sizes[i]) + f[i])``, where ``max``
   keeps ``best`` unless the candidate is strictly larger.

Then one top-down pass per tie order emits the optimal postorder: every
subtree occupies a contiguous range, its children's ranges in sorted
order, the node itself last. The four ``n``-entry outputs get the
peaks ``M_i`` and the orders. It returns ``0``, ``-1`` when its scratch
cannot be allocated and ``-2`` on a non-finite ``f`` or size; the caller
then takes the Python path.

Split spec
----------
``split_subtrees(n, p, child_ptr, child_idx, rank, by_rank, W, w, stop,
root, roots_out, cost_out, steps_out) -> k`` (:func:`split_subtrees`
here wraps it). ``rank``/``by_rank`` are the frontier ranks of
:class:`~repro.parallel.split_subtrees.SplitPlan` (``(W_i, w_i, -i)``
ascending) and their inverse, ``W`` the subtree work by rank, ``w`` the
task durations and ``stop`` (one byte per node) the nodes whose subtree
cannot be split further. The library

1. pops the frontier's heaviest entry (a max-heap of ranks, unique, so
   the pop order is ``heapq``'s) until the head is a stop node, and
   after pop ``k`` records the total frontier work ``sum_all[k]`` (``+=
   W`` of the root, then ``+= -W`` of each pop and ``+= W`` of each of
   its children in child-index order) and ``head_seq[k]`` (``W`` of the
   next head plus the running ``+=`` of the popped ``w``);
2. bounds every later step's cost from below, ``later[k]``: the minimum
   of ``head_seq`` after ``k`` less the margin ``(3 (m + K) + 8) *
   2**-51 * W_root`` (``m`` pops, ``K`` children pushed);
3. replays the pops for ``p``: an ascending array of the ``p``
   heaviest ranks and a max-heap of the others, ``sum_top`` updated with
   the adds and subtracts of the Python replay in its order, the cost
   ``head_seq[k] + (sum_all[k] - sum_top)`` after each pop, stopping
   once ``later[k]`` exceeds the best cost so far;
4. takes the first minimum-cost step (``np.argmin``'s tie) and writes
   its frontier -- the root, or the children of its pops that were not
   popped themselves -- to ``roots_out`` by descending rank, its cost to
   ``cost_out`` and the number of steps ``m + 1`` to ``steps_out``.

It returns the number of frontier roots, ``-1`` when its scratch cannot
be allocated and ``-2`` when the root's ``W`` is not finite; the caller
then takes the Python replay.

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
Liu's peaks and orders hold the bytes of the per-node loop
(``postorder._postorder_peaks_loop``, pinned by
``tests/sequential/test_postorder.py``) and the splitting those of the
Python replay (``SplitPlan._split_reference``, pinned by
``tests/parallel/test_split_subtrees.py``), again by the same
operations in the same order.

Every export depends on every floating-point operation being rounded on
its own, as numpy and CPython round it. ``_FLAGS`` therefore pins
``-ffp-contract=off``: a compiler may otherwise fuse ``a * b + c`` into
one fused multiply-add with a single rounding (GCC's default in GNU C
mode is ``-ffp-contract=fast``, which fuses on any target with FMA
instructions), which silently changes the last bit of a sum and with
it a schedule or a peak (the split's margin is such a product and
sum). No fused operation may enter any export.

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

__all__ = [
    "available",
    "unavailable_reason",
    "batch_kernel",
    "memory_profile",
    "postorder_peaks",
    "split_subtrees",
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

/* ---- Liu's optimal postorder (see the module docstring) ---- */

/* a child in its parent's sort: Liu's key M_j - f_j and its node */
typedef struct {
    double key;
    int64_t node;
} kid_t;

/* <0 when a goes first: the larger key, then the smaller node index
 * (desc = 0) or the larger one (desc = 1). A total order, so every sort
 * algorithm yields the same sequence. */
static int kid_cmp(const kid_t *a, const kid_t *b, int desc)
{
    if (a->key != b->key)
        return a->key > b->key ? -1 : 1;
    if (a->node == b->node)
        return 0;
    return ((a->node < b->node) != desc) ? -1 : 1;
}

static int kid_cmp_asc(const void *a, const void *b)
{
    return kid_cmp(a, b, 0);
}

static int kid_cmp_desc(const void *a, const void *b)
{
    return kid_cmp(a, b, 1);
}

/* Sort the k children of one node and return its peak: Liu's recurrence
 * with the adds and max of the per-node Python loop. */
static double liu_node(kid_t *kids, int64_t k, int desc, const double *peaks,
                       const double *f, double size_i, double f_i)
{
    double acc = 0.0, best = 0.0, x;
    int64_t i, j;
    if (k > 16) {
        qsort(kids, (size_t)k, sizeof(kid_t), desc ? kid_cmp_desc : kid_cmp_asc);
    } else {
        for (i = 1; i < k; i++) {
            kid_t c = kids[i];
            for (j = i; j > 0 && kid_cmp(&c, &kids[j - 1], desc) < 0; j--)
                kids[j] = kids[j - 1];
            kids[j] = c;
        }
    }
    for (i = 0; i < k; i++) {
        x = acc + peaks[kids[i].node];
        if (x > best)
            best = x;
        acc += f[kids[i].node];
    }
    x = acc + size_i + f_i;
    return x > best ? x : best;
}

/* Liu's peaks M_i and the optimal postorder for both tie orders (0:
 * tied siblings in ascending node index, 1: descending) in one
 * bottom-up pass over `post` (children before parents), then one
 * top-down emission per tie order: every subtree occupies a contiguous
 * range, its children's ranges in sorted order, the node itself last.
 * Returns 0, -1 when the scratch could not be allocated, -2 on a
 * non-finite f or size. */
int64_t postorder_peaks(int64_t n, const int64_t *ptr, const int64_t *cidx,
                        const int64_t *post, const double *f,
                        const double *sizes, double *peaks_asc,
                        double *peaks_desc, int64_t *order_asc,
                        int64_t *order_desc)
{
    double *peaks[2];
    int64_t *order[2], *sorted[2], *size, *lo;
    kid_t *kids;
    int64_t i, j, t;
    for (i = 0; i < n; i++) {
        if (!isfinite(f[i]) || !isfinite(sizes[i]))
            return -2;
    }
    size = malloc((size_t)(4 * n) * sizeof(int64_t) + (size_t)n * sizeof(kid_t));
    if (!size)
        return -1;
    lo = size + n;
    sorted[0] = lo + n;
    sorted[1] = sorted[0] + n;
    kids = (kid_t *)(sorted[1] + n);
    peaks[0] = peaks_asc;
    peaks[1] = peaks_desc;
    order[0] = order_asc;
    order[1] = order_desc;
    for (j = 0; j < n; j++) {
        int64_t v = post[j], k = ptr[v + 1] - ptr[v];
        size[v] = 1;
        for (i = 0; i < k; i++)
            size[v] += size[cidx[ptr[v] + i]];
        if (k == 0) {
            peaks_asc[v] = peaks_desc[v] = sizes[v] + f[v];
            continue;
        }
        for (t = 0; t < 2; t++) {
            for (i = 0; i < k; i++) {
                int64_t c = cidx[ptr[v] + i];
                kids[i].key = peaks[t][c] - f[c];
                kids[i].node = c;
            }
            peaks[t][v] = liu_node(kids, k, (int)t, peaks[t], f, sizes[v], f[v]);
            for (i = 0; i < k; i++)
                sorted[t][ptr[v] + i] = kids[i].node;
        }
    }
    for (t = 0; t < 2 && n > 0; t++) {
        lo[post[n - 1]] = 0;
        for (j = n - 1; j >= 0; j--) {
            int64_t v = post[j], off = lo[v];
            for (i = ptr[v]; i < ptr[v + 1]; i++) {
                lo[sorted[t][i]] = off;
                off += size[sorted[t][i]];
            }
            order[t][lo[v] + size[v] - 1] = v;
        }
    }
    free(size);
    return 0;
}

/* ---- Algorithm 2's splitting (see the module docstring) ---- */

static int rank_cmp_desc(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x < y) - (x > y);
}

/* Insert r into the ascending list top[0..size) (ranks are unique). */
static void insort(int64_t *top, int64_t size, int64_t r)
{
    int64_t i = size;
    while (i > 0 && top[i - 1] > r) {
        top[i] = top[i - 1];
        i--;
    }
    top[i] = r;
}

/* The minimum-cost splitting for p processors: SplitPlan's pop sequence
 * (a max-heap of frontier ranks, popped until the head is a stop node)
 * with its cost terms, then split(p)'s top-p replay with its early stop,
 * then the frontier of the first minimum-cost step, written to roots_out
 * by descending rank. W is the subtree work by rank. Returns the number
 * of frontier roots, -1 when the scratch could not be allocated, -2 on
 * a non-finite W of the root. */
int64_t split_subtrees(int64_t n, int64_t p, const int64_t *ptr,
                       const int64_t *cidx, const int64_t *rank,
                       const int64_t *by_rank, const double *W,
                       const double *w, const uint8_t *stop, int64_t root,
                       int64_t *roots_out, double *cost_out,
                       int64_t *steps_out)
{
    int64_t cap = (p < n ? p : n) + 1;
    int64_t *heads, *heap, *top, hsize, tsize, m, kids_total, k, i, r;
    int64_t ncost, best_step;
    double *head_seq, *sum_all, *later, *costs, s, seq, margin, lb, best;
    uint8_t *split;
    if (!isfinite(W[rank[root]]))
        return -2;
    heads = malloc((size_t)(2 * n + cap) * sizeof(int64_t) +
                   (size_t)(4 * n + 1) * sizeof(double) + (size_t)n);
    if (!heads)
        return -1;
    heap = heads + n;
    top = heap + n;
    head_seq = (double *)(top + cap);
    sum_all = head_seq + n;
    later = sum_all + n;
    costs = later + n;
    split = (uint8_t *)(costs + n + 1);

    /* the pop sequence; after pop k: sum_all[k] (the frontier work, one
     * sequential stream of += and -=) and head_seq[k] (W of the next
     * head plus the sequential work so far) */
    hsize = 0;
    push_int(heap, hsize++, -rank[root]);
    m = kids_total = 0;
    s = 0.0;
    s += W[rank[root]];
    seq = 0.0;
    for (;;) {
        int64_t v = by_rank[-heap[0]];
        if (m > 0)
            head_seq[m - 1] = W[rank[v]] + seq;
        if (stop[v])
            break;
        pop_int(heap, hsize--);
        heads[m++] = v;
        seq += w[v];
        s += -W[rank[v]];
        for (i = ptr[v]; i < ptr[v + 1]; i++) {
            push_int(heap, hsize++, -rank[cidx[i]]);
            s += W[rank[cidx[i]]];
        }
        kids_total += ptr[v + 1] - ptr[v];
        sum_all[m - 1] = s;
    }
    /* later[k] bounds every later step's cost from below (SplitPlan) */
    margin = (double)(3 * (m + kids_total) + 8) * 0x1p-51 * W[rank[root]];
    if (m > 0)
        later[m - 1] = INFINITY;
    for (k = m - 2, lb = INFINITY; k >= 0; k--) {
        if (head_seq[k + 1] < lb)
            lb = head_seq[k + 1];
        later[k] = lb - margin;
    }

    /* the top-p replay: top holds the ranks of the (at most p) heaviest
     * frontier entries in ascending order, heap the others (negated) */
    top[0] = rank[root];
    tsize = 1;
    hsize = 0;
    s = 0.0 + W[rank[root]]; /* sum_top */
    costs[0] = W[rank[root]];
    best = costs[0];
    ncost = 1;
    for (k = 0; k < m; k++) {
        int64_t v = heads[k];
        double cost;
        r = top[--tsize];
        s -= W[r];
        if (hsize > 0) {
            r = -pop_int(heap, hsize--);
            insort(top, tsize++, r);
            s += W[r];
        }
        for (i = ptr[v]; i < ptr[v + 1]; i++) {
            r = rank[cidx[i]];
            if (tsize < p) {
                insort(top, tsize++, r);
                s += W[r];
            } else if (r > top[0]) {
                insort(top, tsize++, r);
                s += W[r];
                r = top[0];
                memmove(top, top + 1, (size_t)(--tsize) * sizeof(int64_t));
                s -= W[r];
                push_int(heap, hsize++, -r);
            } else {
                push_int(heap, hsize++, -r);
            }
        }
        cost = head_seq[k] + (sum_all[k] - s);
        costs[ncost++] = cost;
        if (cost < best)
            best = cost;
        if (later[k] > best)
            break;
    }
    for (best_step = 0, i = 1; i < ncost; i++) { /* the first minimum */
        if (costs[i] < costs[best_step])
            best_step = i;
    }

    /* the frontier after best_step pops, by descending rank */
    if (best_step == 0) {
        roots_out[0] = root;
        r = 1;
    } else {
        memset(split, 0, (size_t)n);
        for (k = 0; k < best_step; k++)
            split[heads[k]] = 1;
        r = 0;
        for (k = 0; k < best_step; k++) {
            for (i = ptr[heads[k]]; i < ptr[heads[k] + 1]; i++) {
                if (!split[cidx[i]])
                    heap[r++] = rank[cidx[i]];
            }
        }
        qsort(heap, (size_t)r, sizeof(int64_t), rank_cmp_desc);
        for (i = 0; i < r; i++)
            roots_out[i] = by_rank[heap[i]];
    }
    *cost_out = costs[best_step];
    *steps_out = m + 1;
    free(heads);
    return r;
}
"""

#: compiler flags of the one build; ``-ffp-contract=off`` keeps every
#: floating-point operation separately rounded (see the module docstring).
#: ``-O1``: the cold build runs inside a process's first probe, and on a
#: 2-vCPU x86-64 box with GCC 12 the four exports compile in 0.34 s at
#: -O1 against 0.61 s at -O3, while the sweep of a 20-scenario n = 1e5
#: grid ran in 0.44-0.46 s at -O1 against 0.55 s at -O3.
_FLAGS = ["-O1", "-ffp-contract=off", "-shared", "-fPIC"]

_I, _P = ctypes.c_int64, ctypes.c_void_p

#: every export with its argument types: ``int64`` scalars and raw
#: addresses (see the specs in the module docstring)
_EXPORTS = {
    "batch_event_sweep": [_I] * 3 + [_P] * 17,
    "memory_profile": [_I] + [_P] * 6,
    "postorder_peaks": [_I] + [_P] * 9,
    "split_subtrees": [_I, _I] + [_P] * 7 + [_I] + [_P] * 3,
}

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
    # every export takes raw addresses: an ``ndpointer`` argtype costs ~6
    # us per array and call, a fifth of a small tree's whole profile; the
    # wrappers below check each array once in Python instead (_address)
    for name, argtypes in _EXPORTS.items():
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int64
        fn.argtypes = argtypes
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


def _library():
    """The loaded library (callers check :func:`available` first)."""
    lib, reason = _ensure_built()
    if lib is None:  # pragma: no cover - callers check available() first
        raise RuntimeError(f"C kernel unavailable: {reason}")
    return lib


def _address(arr, dtype, shape: tuple, name: str, out: bool = False) -> int:
    """The address of ``arr`` once it is checked to be what the C code
    reads (or, ``out=True``, writes): a C-contiguous ``dtype`` array of
    ``shape`` (None matches any extent). Raises ``TypeError`` on
    another type or dtype and ``ValueError`` on a strided, mis-shaped or
    read-only output array, so nothing malformed reaches C."""
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        got = arr.dtype if isinstance(arr, np.ndarray) else type(arr).__name__
        raise TypeError(f"{name}: expected a {np.dtype(dtype)} array, got {got}")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: expected a C-contiguous array")
    if arr.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(arr.shape, shape)
    ):
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if out and not arr.flags.writeable:
        raise ValueError(f"{name}: the output array is read-only")
    return arr.ctypes.data


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
    module docstring), after checking the dtype, the C-contiguity and
    the shape of every array (see :func:`_address`).

    ctypes releases the GIL for the duration, so the whole grid sweeps
    without re-entering Python.
    """
    lib = _library()
    i64, f64 = np.int64, np.float64
    n, nscen = len(parent), len(ps)
    args = [
        _address(parent, i64, (n,), "parent"),
        _address(pending0, i64, (n,), "pending0"),
        _address(w, f64, (n,), "w"),
        _address(ranks, i64, (None, n), "ranks"),
        _address(byranks, i64, ranks.shape, "byranks"),
        _address(rank_id, i64, (nscen,), "rank_id"),
        _address(ps, i64, (nscen,), "ps"),
        _address(modes, i64, (nscen,), "modes"),
        _address(cap_eps, f64, (nscen,), "cap_eps"),
        _address(alloc, f64, (n,), "alloc"),
        _address(free_on_end, f64, (n,), "free_on_end"),
        _address(sigmas, i64, (None, None), "sigmas"),
        _address(sigma_id, i64, (nscen,), "sigma_id"),
        _address(start, f64, (nscen, n), "start", out=True),
        _address(proc, i64, (nscen, n), "proc", out=True),
        _address(status, i64, (nscen, 2), "status", out=True),
        _address(resident, f64, (nscen,), "resident", out=True),
    ]
    # rows of n activation entries, or the (1, 0) stand-in of a grid
    # that caps no scenario
    if sigmas.shape[1] != n and (sigmas.shape != (1, 0) or np.any(sigma_id >= 0)):
        raise ValueError(f"sigmas: expected shape (None, {n}), got {sigmas.shape}")
    lib.batch_event_sweep(n, nscen, int(ps.max()) if nscen else 1, *args)


def memory_profile(start, w, alloc, freed):
    """The exact memory profile on the C library: ``(times, levels)``,
    or None when the library declines (scratch allocation failure or a
    non-finite start; the caller then takes the reference path).

    Arguments are the ``float64`` columns of one schedule: task start
    times and durations, the memory each task allocates at start and
    frees at completion. The results are views of one ``(2, 2n)``
    output buffer.
    """
    lib = _library()
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


def postorder_peaks(child_ptr, child_idx, postorder, f, sizes):
    """Liu's optimal postorder on the C library, for both tie orders in
    one pass: ``(peaks_asc, peaks_desc, order_asc, order_desc)``, or None
    when the library declines (a non-finite ``f`` or size, a failed
    allocation; the caller then takes the Python path).

    Arguments are the CSR children of one tree, a postorder of it
    (children before parents) and its ``float64`` memory columns. The
    results are rows of one peaks and one orders buffer.
    """
    lib = _library()
    n = len(f)
    i64, f64 = np.int64, np.float64
    peaks = np.empty((2, n), dtype=f64)
    orders = np.empty((2, n), dtype=i64)
    at, it = peaks.ctypes.data, orders.ctypes.data
    code = lib.postorder_peaks(
        n,
        _address(child_ptr, i64, (n + 1,), "child_ptr"),
        _address(child_idx, i64, (n - 1,), "child_idx"),
        _address(postorder, i64, (n,), "postorder"),
        _address(f, f64, (n,), "f"),
        _address(sizes, f64, (n,), "sizes"),
        at,
        at + 8 * n,
        it,
        it + 8 * n,
    )
    if code < 0:
        return None
    return peaks[0], peaks[1], orders[0], orders[1]


def split_subtrees(p, child_ptr, child_idx, rank, by_rank, rank_work, w, stop, root):
    """Algorithm 2's minimum-cost splitting for ``p`` processors on the
    C library: ``(frontier_roots, cost, steps)``, the frontier by
    descending rank, or None when the library declines (a non-finite
    subtree work, a failed allocation; the caller then takes the
    Python replay).

    Arguments are :class:`~repro.parallel.split_subtrees.SplitPlan`'s:
    the CSR children, the frontier ranks and their inverse, the subtree
    work by rank, the task durations, the stop mask and the root.
    """
    lib = _library()
    n = len(rank)
    i64 = np.int64
    roots = np.empty(n + 1, dtype=i64)  # the frontier, then the step count
    cost = np.empty(1, dtype=np.float64)
    at = roots.ctypes.data
    k = lib.split_subtrees(
        n,
        p,
        _address(child_ptr, i64, (n + 1,), "child_ptr"),
        _address(child_idx, i64, (n - 1,), "child_idx"),
        _address(rank, i64, (n,), "rank"),
        _address(by_rank, i64, (n,), "by_rank"),
        _address(rank_work, np.float64, (n,), "rank_work"),
        _address(w, np.float64, (n,), "w"),
        _address(stop, np.bool_, (n,), "stop"),
        root,
        at,
        cost.ctypes.data,
        at + 8 * n,
    )
    if k < 0:
        return None
    return roots[:k], float(cost[0]), int(roots[n])
