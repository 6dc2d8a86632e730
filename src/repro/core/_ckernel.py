"""The compiled library: the C event sweep of
:class:`repro.core.engine.SchedulerEngine`, the exact memory profile of
:func:`repro.core.simulator.memory_profile`, the phase-1 peaks of
:func:`repro.parallel.memory_aware_subtrees.par_subtrees_memory_aware`,
Liu's optimal postorder of
:func:`repro.sequential.postorder.optimal_postorders` and Algorithm 2's
splitting of :meth:`repro.parallel.split_subtrees.SplitPlan.split`.

Its source is ``kernel.c`` next to this module (package data): each
export translates its Python path line for line and must produce
bit-identical outputs. The file's header states that equivalence
contract, and the comment above each export's C function is its spec.
This module compiles the file on demand with the system toolchain
(``cc``/``gcc``/``clang``) into a shared library cached under the user
cache directory (override with ``REPRO_KERNEL_CACHE``) and loads it via
:mod:`ctypes`. The library is strictly optional: when no toolchain is
available, ``kernel.c`` is missing (an install without its package
data) or the compile fails, :func:`available` returns False and every
caller takes its Python path instead: the engine sweeps on the
reference loop, the simulator measures on its numpy reference, Liu's
recurrence runs its per-node loop and the split its Python replay;
MemoryAwareSubtrees builds and measures every concurrency level.

The five exports are serial, and ctypes releases the GIL for the
duration of each call. Each takes ``int64`` scalars and raw addresses:
its Python wrapper here checks the dtype, the C-contiguity and the
shape of every array once (:func:`_address`), where an ``ndpointer``
argtype would cost ~6 us per array and call.

Build cache
-----------
The build is keyed by a hash of ``kernel.c``'s bytes and the compiler
flags, so editing the kernel invalidates the cache automatically and
concurrent processes converge on the same artifact: the compile output
is written to a unique temporary name and atomically renamed, and a
stale-lock-tolerant ``.lock`` guard elects one builder while the others
wait for the artifact to appear (a crashed builder's lock is broken
once it goes stale, and a lock wait that times out simply compiles
redundantly -- ``os.replace`` keeps that correct).
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
    "phase1_peaks",
    "postorder_peaks",
    "split_subtrees",
    "cache_dir",
]

#: the library's C source, compiled in place
_KERNEL_C = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")

#: compiler flags of the one build; ``-ffp-contract=off`` keeps every
#: floating-point operation separately rounded (see the header of kernel.c).
#: ``-O1``: the cold build runs inside a process's first probe, and on a
#: 2-vCPU x86-64 box with GCC 12 the four exports compile in 0.34 s at
#: -O1 against 0.61 s at -O3, while the sweep of a 20-scenario n = 1e5
#: grid ran in 0.44-0.46 s at -O1 against 0.55 s at -O3.
_FLAGS = ["-O1", "-ffp-contract=off", "-shared", "-fPIC"]

_I, _P = ctypes.c_int64, ctypes.c_void_p

#: every export with its argument types: ``int64`` scalars and raw
#: addresses (see the spec above each export in kernel.c)
_EXPORTS = {
    "batch_event_sweep": [_I] * 3 + [_P] * 15,
    "memory_profile": [_I] + [_P] * 6,
    "phase1_peaks": [_I] * 3 + [_P] * 6,
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
    """Cache key of the build: kernel source *and* compiler flags
    (``OSError`` when ``kernel.c`` cannot be read)."""
    with open(_KERNEL_C, "rb") as fh:
        payload = fh.read() + b"\n// flags: " + " ".join(_FLAGS).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


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

    Concurrent-safe: ``kernel.c`` is compiled in place to a unique
    temporary name that is atomically renamed into place, and a lock
    file elects one builder per artifact -- losers wait for the
    winner's artifact instead of compiling alongside it (the
    first-compile race of two pool workers starting on a cold cache).
    A waiting process whose winner never delivers (crash; stale lock)
    falls back to compiling itself. ``kernel.c`` is hashed again
    before the rename, so a source edited mid-build never lands under
    the old source's key.
    """
    directory = os.path.dirname(lib_path)
    tmp_lib = None
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
        fd, tmp_lib = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        cmd = [cc, *_FLAGS, "-o", tmp_lib, _KERNEL_C]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout).strip().splitlines()
            return f"{cc} failed: {detail[-1] if detail else 'unknown error'}"
        if _lib_path() != lib_path:
            # kernel.c was edited while cc read it: the library is not
            # the source its name hashes, so it must not enter the cache
            return "kernel build failed: kernel.c changed during the build"
        os.replace(tmp_lib, lib_path)  # atomic: racers converge
        tmp_lib = None
        return ""
    except (OSError, subprocess.SubprocessError) as exc:
        # a hung or broken toolchain must degrade to "unavailable",
        # never crash an engine run
        return f"kernel build failed: {exc}"
    finally:
        if tmp_lib is not None:
            try:
                os.unlink(tmp_lib)
            except OSError:
                pass
        if locked:
            try:
                os.unlink(lock_path)
            except OSError:
                pass


def _compile() -> tuple:
    """Build (or reuse) the shared library; ``(library or None, reason)``."""
    try:
        lib_path = _lib_path()
    except OSError:  # e.g. an install without its package data
        return None, f"kernel source missing: {_KERNEL_C}"
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
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
    if arr.shape != shape and (  # the exact tuple first: the common case
        arr.ndim != len(shape)
        or any(want is not None and got != want for got, want in zip(arr.shape, shape))
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
    capped,
    cap_eps,
    alloc,
    free_on_end,
    start,
    proc,
    status,
    resident,
):
    """Invoke the C kernel (the argument order of ``batch_event_sweep``;
    the comment above it in ``kernel.c`` specifies each argument), after
    checking the dtype, the C-contiguity and the shape of every array
    (see :func:`_address`).

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
        _address(capped, i64, (nscen,), "capped"),
        _address(cap_eps, f64, (nscen,), "cap_eps"),
        _address(alloc, f64, (n,), "alloc"),
        _address(free_on_end, f64, (n,), "free_on_end"),
        _address(start, f64, (nscen, n), "start", out=True),
        _address(proc, i64, (nscen, n), "proc", out=True),
        _address(status, i64, (nscen, 2), "status", out=True),
        _address(resident, f64, (nscen,), "resident", out=True),
    ]
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
    n = len(start)
    f64 = np.float64
    out = np.empty((2, 2 * n), dtype=f64)
    times = ctypes.addressof(ctypes.c_char.from_buffer(out))  # cheaper than .ctypes.data
    m = lib.memory_profile(
        n,
        _address(start, f64, (n,), "start"),
        _address(w, f64, (n,), "w"),
        _address(alloc, f64, (n,), "alloc"),
        _address(freed, f64, (n,), "freed"),
        times,
        times + 16 * n,
    )
    if m < 0:
        return None
    return out[0, :m], out[1, :m]


def phase1_peaks(nodes, group_end, w, alloc, freed):
    """MemoryAwareSubtrees' phase-1 peaks on the C library: a ``float64``
    array whose entry ``k - 1`` is the highest level of the level-``k``
    schedule's memory profile at instants strictly before its phase 2
    (``-inf`` when there is none), or None when the library declines (a
    non-finite time, malformed groups, a failed allocation).

    ``nodes`` concatenates the candidate subtrees' orders, heaviest
    first; candidate ``g`` ends at ``group_end[g]``. ``w``, ``alloc``
    and ``freed`` are the tree's ``float64`` columns (see the spec of
    ``phase1_peaks`` in ``kernel.c``).
    """
    lib = _library()
    n, q, m = len(w), len(group_end), len(nodes)
    i64, f64 = np.int64, np.float64
    peaks = np.empty(q, dtype=f64)
    code = lib.phase1_peaks(
        n,
        q,
        m,
        _address(nodes, i64, (m,), "nodes"),
        _address(group_end, i64, (q,), "group_end"),
        _address(w, f64, (n,), "w"),
        _address(alloc, f64, (n,), "alloc"),
        _address(freed, f64, (n,), "freed"),
        peaks.ctypes.data,
    )
    if code < 0:
        return None
    return peaks


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
