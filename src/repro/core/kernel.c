/* The compiled library of repro-trees: five serial exports, each a C
 * translation of one Python path of the package over typed, C-contiguous
 * numpy arrays. repro/core/_ckernel.py compiles this file on demand
 * (with its _FLAGS) and loads it through ctypes; every caller falls back
 * to its Python path when the library is unavailable.
 *
 *   batch_event_sweep  SchedulerEngine's event sweep, line for line the
 *                      reference loop SchedulerEngine.run_reference, over
 *                      every scenario of a grid against one tree
 *   memory_profile     the exact memory profile of one schedule
 *                      (simulator.memory_profile)
 *   phase1_peaks       MemoryAwareSubtrees' peak of every concurrency
 *                      level before its sequential phase
 *   postorder_peaks    Liu's optimal postorder, for both tie orders
 *   split_subtrees     Algorithm 2's minimum-cost splitting for one p
 *
 * Every export takes int64 scalars and raw addresses; its Python wrapper
 * checks the dtype, the C-contiguity and the shape of every array once.
 * The spec of each export is the comment above its definition.
 *
 * Equivalence contract: every export produces bit-identical outputs to
 * its Python path, by the same floating-point operations in the same
 * order; a behavioural change must be made in both.
 *  - The sweep matches the reference loop (pinned by
 *    tests/core/test_backends.py). Event keys: the reference loop
 *    encodes the events of integral-weight trees as exact integers
 *    end * n + node; the sweep here always uses a (double end, int64
 *    node) pair heap. The two orders coincide whenever every completion
 *    time is exactly representable as a double, which the engine checks
 *    before dispatching here (it keeps the reference loop for integral
 *    weights whose total reaches 2**53; PreparedTree.kernel_exact).
 *    Memory accounting: mem is accumulated with the same adds and
 *    subtracts in the same chronological order as the reference loop,
 *    so capped feasibility decisions match bit for bit. Pop order is
 *    determined by the key order alone, so neither structure mimics
 *    heapq's internals: ready entries are bare ranks (a permutation,
 *    hence unique) and the lowest set bit of the ready bitset is the
 *    rank heapq would pop; running entries carry the node id as
 *    tie-break, so a binary heap of them pops as heapq does.
 *  - The memory profile holds the bytes of the numpy reference
 *    (simulator._memory_profile_reference, pinned by
 *    tests/core/test_simulator.py) for the same reason: the same adds in
 *    the same order. Its level starts at -0.0, the additive identity, so
 *    even a leading -0.0 delta reproduces cumsum's first element. The
 *    phase-1 peaks are a prefix of it, pinned against a numpy oracle by
 *    tests/parallel/test_phase1_peaks.py.
 *  - Liu's peaks and orders hold the bytes of the per-node loop
 *    (postorder._postorder_peaks_loop, pinned by
 *    tests/sequential/test_postorder.py) and the splitting those of the
 *    Python replay (SplitPlan._split_reference, pinned by
 *    tests/parallel/test_split_subtrees.py).
 *
 * Every export depends on every floating-point operation being rounded
 * on its own, as numpy and CPython round it. _ckernel._FLAGS therefore
 * pins -ffp-contract=off: a compiler may otherwise fuse a * b + c into
 * one fused multiply-add with a single rounding (GCC's default in GNU C
 * mode is -ffp-contract=fast, which fuses on any target with FMA
 * instructions), which silently changes the last bit of a sum and with
 * it a schedule or a peak (the split's margin is such a product and
 * sum). No fused operation may enter any export. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* array-based binary min-heaps; pop order == heapq pop order because
 * all keys are unique (split_subtrees' entries are ranks, running
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

/* The sweep's ready set: a hierarchical 64-ary bitset over the ranks
 * 0..n-1. Level 0 holds one bit per rank; bit i of a level-l word is set
 * exactly when word i of level l-1 is non-zero; the top level is one
 * word. Ranks are a permutation, so popping the lowest set bit pops in
 * the order of any min-structure over them. */
#define RSET_LEVELS 12 /* ceil(64 / 6) + 1: enough for any int64 n */

typedef struct {
    uint64_t *word[RSET_LEVELS]; /* word[l]: the words of level l */
    int top; /* the level of one word */
} rset_t;

/* The number of words of every level for n ranks (n >= 1). */
static int64_t rset_words(int64_t n)
{
    int64_t total = 0, m = n;
    do {
        m = (m + 63) >> 6;
        total += m;
    } while (m > 1);
    return total;
}

/* Lay the levels out over `words` (rset_words(n) of them), all empty. */
static void rset_init(rset_t *set, uint64_t *words, int64_t n)
{
    int64_t m = n;
    int l = 0;
    do {
        m = (m + 63) >> 6;
        set->word[l] = words;
        words += m;
        l++;
    } while (m > 1);
    set->top = l - 1;
    memset(set->word[0], 0, (size_t)(words - set->word[0]) * sizeof(uint64_t));
}

/* set bit r, and upwards until a word that was already non-empty */
static void rset_insert(rset_t *set, int64_t r)
{
    int l;
    for (l = 0; l <= set->top; l++) {
        uint64_t *wd = set->word[l] + (r >> 6);
        uint64_t was = *wd;
        *wd = was | (1ULL << (r & 63));
        if (was)
            return;
        r >>= 6;
    }
}

/* clear bit r, and upwards while words become empty */
static void rset_delete(rset_t *set, int64_t r)
{
    int l;
    for (l = 0; l <= set->top; l++) {
        uint64_t *wd = set->word[l] + (r >> 6);
        *wd &= ~(1ULL << (r & 63));
        if (*wd)
            return;
        r >>= 6;
    }
}

/* remove and return the lowest set rank (the set must not be empty) */
static int64_t rset_pop(rset_t *set)
{
    int64_t r = 0;
    int l;
    for (l = set->top; l >= 0; l--)
        r = (r << 6) | __builtin_ctzll(set->word[l][r]);
    rset_delete(set, r);
    return r;
}

/* One event sweep over caller-provided scratch (the ready set's
 * rset_words(n) words, a running heap sized n and a free-processor stack
 * sized >= p); returns status[0]. */
static int64_t event_sweep(int64_t n, int64_t p,
                    const int64_t *parent, int64_t *pending,
                    const double *w,
                    const int64_t *rank, const int64_t *byrank,
                    int64_t capped, double cap_eps,
                    const double *alloc, const double *free_on_end,
                    double *start, int64_t *proc,
                    int64_t *status, double *resident,
                    uint64_t *ready_words, double *run_key,
                    int64_t *run_node, int64_t *free_stack)
{
    int64_t free_count, ready_size, run_size, started, next_sigma, i, q;
    double now, mem;
    rset_t ready;

    for (q = 0; q < p; q++)
        free_stack[q] = p - 1 - q; /* pop from the tail => proc 0 first */
    free_count = p;
    rset_init(&ready, ready_words, n);
    ready_size = 0;
    for (i = 0; i < n; i++) {
        if (pending[i] == 0) {
            rset_insert(&ready, rank[i]);
            ready_size++;
        }
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
            if (capped) {
                /* the next task of the activation order (the rank order)
                 * is the smallest ready rank once it is ready */
                node = byrank[next_sigma];
                if (pending[node] > 0 || mem + alloc[node] > cap_eps)
                    break;
                rset_pop(&ready);
                next_sigma++;
            } else {
                node = byrank[rset_pop(&ready)];
            }
            ready_size--;
            q = free_stack[--free_count];
            start[node] = now;
            proc[node] = q;
            t_end = now + w[node];
            push_run(run_key, run_node, run_size++, t_end, node);
            mem += alloc[node];
            started++;
        }
        if (run_size == 0) {
            if (started >= n)
                break;
            if (capped) {
                status[0] = 1;
                status[1] = byrank[next_sigma];
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
                        rset_insert(&ready, rank[par]);
                        ready_size++;
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

/* batch_event_sweep: one call sweeps every scenario of a grid against
 * the same tree, serially in scenario order, each with event_sweep over
 * one malloc'd scratch arena (the ready bitset, the running heap, the
 * free-processor stack and a private copy of pending0 refilled per
 * scenario). A single engine run is a grid of one. The arguments by
 * role (_ckernel.batch_kernel gives the order):
 *
 * Tree columns (n entries each, read-only, shared by every scenario):
 *   parent            in-tree parent vector (root = -1)
 *   pending0          per-node count of incomplete children, i.e.
 *                     np.diff(child_ptr) of the CSR children structure
 *   w                 task durations
 *   alloc, free_on_end
 *                     memory acquired at start / released at completion
 *
 * Stacked per-scenario parameters (S = nscen scenarios):
 *   ranks, byranks, rank_id
 *                     (R x n) stacks of priority permutations and their
 *                     inverses (byrank[rank[i]] == i); scenario s reads
 *                     row rank_id[s]
 *   ps                processor counts (max_p is their maximum)
 *   capped, cap_eps   1 = memory-capped, 0 = not; cap_eps is the cap plus
 *                     the engine's feasibility epsilon. A capped scenario
 *                     starts its tasks exactly in rank order (the
 *                     activation order is byrank), each once it is ready
 *                     and its allocation fits under cap_eps.
 *
 * Stacked outputs, row s belonging to scenario s (engine.batch_arrays
 * allocates them) -- the schedule itself, 16 bytes per (scenario, task),
 * and nothing of how it was built:
 *   start, proc       (S x n) start time and processor of every task
 *                     (both must be initialised to -1)
 *   status            (S x 2) status[0]: 0 = ok, 1 = memory cap
 *                     infeasible, 3 = deadlock (defensive), 4 = scratch
 *                     allocation failure; status[1]: the offending node
 *                     for code 1
 *   resident          (S) resident memory when the sweep stopped (codes
 *                     0-1); the infeasible-cap message reports it
 *
 * Returns 1 when the scratch arena could not be allocated (every status
 * row then says 4), else 0. */
int64_t batch_event_sweep(int64_t n, int64_t nscen, int64_t max_p,
                    const int64_t *parent, const int64_t *pending0,
                    const double *w,
                    const int64_t *ranks, const int64_t *byranks,
                    const int64_t *rank_id,
                    const int64_t *ps, const int64_t *capped,
                    const double *cap_eps,
                    const double *alloc, const double *free_on_end,
                    double *start, int64_t *proc,
                    int64_t *status, double *resident)
{
    int64_t *pending = malloc((size_t)n * sizeof(int64_t));
    uint64_t *ready = malloc((size_t)rset_words(n) * sizeof(uint64_t));
    double *run_key = malloc((size_t)n * sizeof(double));
    int64_t *run_node = malloc((size_t)n * sizeof(int64_t));
    int64_t *free_stack = malloc((size_t)max_p * sizeof(int64_t));
    int64_t ok = pending && ready && run_key && run_node && free_stack;
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
                    capped[s], cap_eps[s], alloc, free_on_end,
                    start + s * n, proc + s * n,
                    status + 2 * s, resident + s,
                    ready, run_key, run_node, free_stack);
    }
    free(pending);
    free(ready);
    free(run_key);
    free(run_node);
    free(free_stack);
    return !ok;
}

/* ---- the exact memory profile ---- */

/* one event of a profile: the order-preserving key of its instant and
 * the memory it allocates (start list) or frees (end list), or its task */
typedef struct {
    uint64_t key;
    union {
        double delta; /* memory_profile: the memory it allocates or frees */
        int64_t node; /* phase1_peaks: its task */
    } u;
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

/* memory_profile(n, start, w, alloc, freed, times_out, levels_out) -> m:
 * the piecewise-constant memory profile of one schedule, for every
 * distinct instant (ascending) the resident memory from that instant on.
 * Task i allocates alloc[i] (n_i + f_i) at start[i] and frees freed[i]
 * (n_i plus its children's outputs) at end = start[i] + w[i], the double
 * add of Schedule.end. It
 *  1. keys every start and every end by an order-preserving uint64
 *     (-0.0 folded into +0.0, which numpy compares equal);
 *  2. radix-sorts the two lists of (key, delta) events stably (LSD,
 *     digits of at most 11 bits, only the bits in which some key
 *     differs), so equal instants keep ascending node order;
 *  3. merges them: per distinct instant, its frees in ascending node
 *     index, then its allocations in ascending node index, level +=
 *     delta one event at a time -- exactly np.cumsum over the stable
 *     lexsort((phase, time)) of the reference;
 *  4. writes one (instant, level) pair per instant: times_out gets the
 *     instant as the reference stores it, levels_out the level after
 *     its last event; both need room for 2n entries.
 * Returns the number m of instants, -1 when the scratch could not be
 * allocated and -2 on a non-finite start; the simulator then takes its
 * numpy reference path. */
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
        sev[i].u.delta = alloc[i];
        eev[i].key = time_key(start[i] + w[i]);
        eev[i].u.delta = freed[i];
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
            level -= eev[ib].u.delta;
        for (; ia < n && sev[ia].key == t; ia++)
            level += sev[ia].u.delta;
        times_out[m] = t == ZERO_KEY ? zero_time(n, start, w) : key_time(t);
        levels_out[m] = level;
        m++;
    }
    free(buf);
    return m;
}

/* ---- MemoryAwareSubtrees' phase-1 peaks ---- */

/* phase1_peaks(n, q, m, nodes, group_end, w, alloc, freed, peaks_out)
 * -> code: the highest memory level of every concurrency level's
 * schedule before its phase 2, in one pass. nodes concatenates the
 * orders of MemoryAwareSubtrees' q candidate subtrees, heaviest first;
 * candidate g (0 <= g < q) is nodes[group_end[g-1] .. group_end[g])
 * (group_end[-1] = 0). The concurrency-k schedule runs candidate g < k
 * back to back from 0 on processor g and every other task after T1(k),
 * the latest end of those k. It
 *  1. places every candidate's tasks with t += w from 0.0 -- the
 *     additions of _pack_schedule's cumsum -- and takes T1(k) as the
 *     running maximum of the candidates' ends (the first of equal ends,
 *     as Python's max);
 *  2. keys and radix-sorts the candidates' start and end events as
 *     memory_profile does, ascending node index within an instant;
 *  3. merges them as memory_profile does -- per instant its frees, then
 *     its allocations -- but adds each event to the running level of
 *     every k that runs its candidate, one level per k starting at -0.0;
 *  4. writes to peaks_out[k - 1] the highest level of k after an instant
 *     strictly before T1(k) at which one of its events falls, -inf when
 *     there is none.
 * Every other event of the concurrency-k schedule comes at or after
 * T1(k), so these instants, levels and adds are exactly the prefix of
 * memory_profile of that schedule before T1(k), and peaks_out[k - 1] is
 * the highest of those levels: a lower bound of the schedule's peak that
 * needs no schedule. Returns 0, -1 when the scratch could not be
 * allocated, -2 on a non-finite time and -3 on a node out of range or
 * repeated or a group_end that does not partition the m nodes;
 * MemoryAwareSubtrees then builds and measures every level. */
int64_t phase1_peaks(int64_t n, int64_t q, int64_t m, const int64_t *nodes,
                     const int64_t *group_end, const double *w,
                     const double *alloc, const double *freed,
                     double *peaks_out)
{
    int width = digit_width(m);
    int64_t *group, *hist;
    double *start, *level, *peak, t, t1;
    uint64_t *t1key, stop;
    event_t *sev, *eev, *tmp;
    int64_t g, i, k, lo, ia, ib, code = 0;
    for (k = 0; k < q; k++)
        peaks_out[k] = -INFINITY;
    if (q <= 0 || m <= 0)
        return 0;
    group = malloc((size_t)n * (sizeof(int64_t) + sizeof(double)) +
                   (size_t)(3 * m) * sizeof(event_t) +
                   ((size_t)(64 + width - 1) / width << width) * sizeof(int64_t) +
                   (size_t)(q + 1) * (2 * sizeof(double) + sizeof(uint64_t)));
    if (!group)
        return -1;
    start = (double *)(group + n);
    sev = (event_t *)(start + n);
    eev = sev + m;
    tmp = eev + m;
    hist = (int64_t *)(tmp + m);
    level = (double *)(hist + ((64 + width - 1) / width << width));
    peak = level + q + 1;
    t1key = (uint64_t *)(peak + q + 1);
    for (i = 0; i < n; i++)
        group[i] = -1;
    /* the phase-1 starts and every level's T1 */
    t1 = 0.0;
    for (g = 0, lo = 0; g < q; g++) {
        if (group_end[g] < lo || group_end[g] > m || (g == q - 1 && group_end[g] != m)) {
            code = -3;
            goto done;
        }
        t = 0.0;
        for (i = lo; i < group_end[g]; i++) {
            int64_t v = nodes[i];
            if (v < 0 || v >= n || group[v] >= 0) {
                code = -3;
                goto done;
            }
            group[v] = g;
            start[v] = t;
            t += w[v];
        }
        if (!isfinite(t)) {
            code = -2;
            goto done;
        }
        if (t > t1) /* Python's max(t1, t): the first of equals */
            t1 = t;
        t1key[g + 1] = time_key(t1);
        lo = group_end[g];
    }
    /* the events in ascending node index, then sorted stably by instant */
    for (i = 0, k = 0; i < n; i++) {
        if (group[i] < 0)
            continue;
        sev[k].key = time_key(start[i]);
        sev[k].u.node = i;
        eev[k].key = time_key(start[i] + w[i]);
        eev[k].u.node = i;
        k++;
    }
    radix_sort(m, width, sev, tmp, hist);
    radix_sort(m, width, eev, tmp, hist);
    for (k = 1; k <= q; k++) {
        level[k] = -0.0; /* as in memory_profile */
        peak[k] = -INFINITY;
    }
    /* the merge of memory_profile, each event added to the levels that
     * run its candidate, up to the last T1 */
    stop = t1key[q];
    ia = ib = 0;
    while (ia < m || ib < m) {
        uint64_t key;
        int64_t gmin = q;
        if (ib < m && (ia >= m || eev[ib].key <= sev[ia].key))
            key = eev[ib].key;
        else
            key = sev[ia].key;
        if (key >= stop)
            break;
        for (; ib < m && eev[ib].key == key; ib++) {
            int64_t v = eev[ib].u.node;
            double d = freed[v];
            g = group[v];
            if (g < gmin)
                gmin = g;
            for (k = g + 1; k <= q; k++)
                level[k] -= d;
        }
        for (; ia < m && sev[ia].key == key; ia++) {
            int64_t v = sev[ia].u.node;
            double d = alloc[v];
            g = group[v];
            if (g < gmin)
                gmin = g;
            for (k = g + 1; k <= q; k++)
                level[k] += d;
        }
        /* an instant of the level-k profile when k runs one of its events */
        for (k = gmin + 1; k <= q; k++) {
            if (key < t1key[k] && level[k] > peak[k])
                peak[k] = level[k];
        }
    }
    for (k = 1; k <= q; k++)
        peaks_out[k - 1] = peak[k];
done:
    free(group);
    return code;
}

/* ---- Liu's optimal postorder ---- */

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

/* postorder_peaks(n, ptr, cidx, post, f, sizes, peaks_asc, peaks_desc,
 * order_asc, order_desc) -> code: Liu's peaks M_i and the optimal
 * postorder of one tree for both tie orders at once. ptr/cidx are the
 * tree's CSR children (ascending node index within a parent) and post
 * any postorder (children before parents). One bottom-up pass over post
 * computes
 *  1. a leaf's peak sizes[i] + f[i];
 *  2. an inner node's children sorted by the key M_j - f_j descending,
 *     equal keys by ascending node index (*_asc) or descending (*_desc)
 *     -- a total order, so the sort algorithm (insertion sort up to 16
 *     children, qsort beyond) cannot change the result, and it is the
 *     order of the Python loop's stable sorted(..., reverse=True);
 *  3. its peak with the loop's adds and max: acc and best start at 0.0;
 *     per child best = max(best, acc + M_j) then acc += f_j; last
 *     max(best, (acc + sizes[i]) + f[i]), where max keeps best unless
 *     the candidate is strictly larger.
 * Then one top-down pass per tie order emits the optimal postorder:
 * every subtree occupies a contiguous range, its children's ranges in
 * sorted order, the node itself last. The four n-entry outputs get the
 * peaks M_i and the orders. Returns 0, -1 when the scratch could not be
 * allocated and -2 on a non-finite f or size; the caller then takes the
 * Python path. */
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

/* ---- Algorithm 2's splitting ---- */

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

/* split_subtrees(n, p, ptr, cidx, rank, by_rank, W, w, stop, root,
 * roots_out, cost_out, steps_out) -> k: Algorithm 2's minimum-cost
 * splitting of one tree for p processors. rank/by_rank are the frontier
 * ranks of SplitPlan ((W_i, w_i, -i) ascending) and their inverse, W the
 * subtree work by rank, w the task durations and stop (one byte per
 * node) the nodes whose subtree cannot be split further. It
 *  1. pops the frontier's heaviest entry (a max-heap of ranks, unique,
 *     so the pop order is heapq's) until the head is a stop node, and
 *     after pop k records the total frontier work sum_all[k] (+= W of
 *     the root, then += -W of each pop and += W of each of its children
 *     in child-index order) and head_seq[k] (W of the next head plus the
 *     running += of the popped w);
 *  2. bounds every later step's cost from below, later[k]: the minimum
 *     of head_seq after k less the margin (3 (m + K) + 8) * 2**-51 *
 *     W_root (m pops, K children pushed);
 *  3. replays the pops for p as split(p) does: an ascending array of the
 *     p heaviest ranks and a max-heap of the others, sum_top updated
 *     with the adds and subtracts of the Python replay in its order, the
 *     cost head_seq[k] + (sum_all[k] - sum_top) after each pop, stopping
 *     once later[k] exceeds the best cost so far;
 *  4. takes the first minimum-cost step (np.argmin's tie) and writes its
 *     frontier -- the root, or the children of its pops that were not
 *     popped themselves -- to roots_out by descending rank, its cost to
 *     cost_out and the number of steps m + 1 to steps_out.
 * Returns the number k of frontier roots, -1 when the scratch could not
 * be allocated and -2 when the root's W is not finite; the caller then
 * takes the Python replay. */
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
