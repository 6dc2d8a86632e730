"""Concurrent first-compile safety of the C kernel build cache.

Two pool workers starting on a cold ``REPRO_KERNEL_CACHE`` race for
the same library path: one process could load a half-written ``.so``.
The build elects one builder via an ``O_EXCL`` lock file
(stale-tolerant, so a SIGKILLed builder cannot wedge future compiles),
compiles the package's ``kernel.c`` in place to a unique temp name and
publishes the library with an atomic rename; nothing but the library
lands in the cache. These tests race real processes against a cold
cache and pin the lock election rules.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.core import _ckernel

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None
    and shutil.which("gcc") is None
    and shutil.which("clang") is None,
    reason="no C toolchain on PATH",
)


class TestBuildLock:
    def test_exclusive_acquire_and_pid_stamp(self, tmp_path):
        lock = str(tmp_path / "k.so.lock")
        assert _ckernel._acquire_build_lock(lock)
        assert open(lock).read().strip() == str(os.getpid())
        # held: a second contender loses
        assert not _ckernel._acquire_build_lock(lock)

    def test_stale_lock_is_broken(self, tmp_path):
        lock = str(tmp_path / "k.so.lock")
        assert _ckernel._acquire_build_lock(lock)
        # a fresh lock is honoured...
        assert not _ckernel._acquire_build_lock(lock)
        # ...but one older than the stale threshold (a builder that was
        # SIGKILLed mid-compile) is unlinked and re-acquired
        past = time.time() - (_ckernel._LOCK_STALE_SECONDS + 10)
        os.utime(lock, (past, past))
        assert _ckernel._acquire_build_lock(lock)

    def test_lock_released_after_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        lib = _ckernel._lib_path()
        assert os.path.dirname(lib) == str(tmp_path)
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        assert _ckernel._compile_one(cc, lib) == ""
        assert os.path.exists(lib)
        assert not os.path.exists(lib + ".lock")

    def test_source_edited_mid_build_is_not_cached(self, tmp_path, monkeypatch):
        """A ``kernel.c`` saved while ``cc`` reads it would publish a
        library under the old source's key: the build re-hashes the
        source, drops the library and reports the build failed."""
        source = tmp_path / "kernel.c"
        shutil.copyfile(_ckernel._KERNEL_C, source)
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
        monkeypatch.setattr(_ckernel, "_KERNEL_C", str(source))
        lib = _ckernel._lib_path()
        run = subprocess.run

        def compile_then_edit(*args, **kwargs):
            proc = run(*args, **kwargs)
            with open(source, "ab") as fh:
                fh.write(b"\n")
            return proc

        monkeypatch.setattr(_ckernel.subprocess, "run", compile_then_edit)
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        error = _ckernel._compile_one(cc, lib)
        assert error == "kernel build failed: kernel.c changed during the build"
        assert os.listdir(cache) == []


_PROBE = """
import sys
from repro.core import _ckernel
ok = _ckernel.available()
print("available" if ok else f"unavailable: {_ckernel.unavailable_reason()}")
sys.exit(0 if ok else 1)
"""


def _env(cache: str) -> dict:
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = {**os.environ, "REPRO_KERNEL_CACHE": cache}
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULT_PLAN", None)  # a chaos env must not fail the build
    return env


def _child_cache_key() -> str:
    """The cache key of a fresh interpreter's build: its own ``_FLAGS``,
    which ``--sanitize-kernel`` extends in this process only."""
    code = "from repro.core import _ckernel; print(_ckernel._cache_key())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(""),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return proc.stdout.strip()


class TestConcurrentFirstCompile:
    def test_simultaneous_cold_cache_compiles_converge(self, tmp_path):
        """Several processes hitting an empty cache at once: every one
        reports the backend available, exactly one library lands (no
        copy of the source beside it), and no lock or temp residue
        survives."""
        cache = str(tmp_path / "cache")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE],
                env=_env(cache),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for _ in range(3)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, out
            assert "available" in out
        names = sorted(os.listdir(cache))
        assert len([n for n in names if n.endswith(".so")]) == 1
        assert not [n for n in names if n.endswith(".c")], names
        assert not [n for n in names if ".lock" in n or ".tmp" in n], names

    def test_stale_lock_from_killed_builder_does_not_wedge(self, tmp_path):
        """A lock file left by a SIGKILLed builder is broken and the
        compile proceeds instead of waiting out the full window."""
        cache = tmp_path / "cache"
        cache.mkdir()
        lock = cache / f"event_sweep_{_child_cache_key()}.so.lock"
        lock.write_text("999999\n")
        past = time.time() - (_ckernel._LOCK_STALE_SECONDS + 10)
        os.utime(lock, (past, past))
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=_env(str(cache)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert not lock.exists()
