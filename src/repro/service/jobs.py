"""The on-disk job journal: crash-safe state, idempotent creation.

Layout (everything under one root directory)::

    <root>/jobs/<job-id>/
        spec.json        # canonical job spec, written once at creation
        state.json       # the state machine, replaced atomically
        records.jsonl    # the campaign checkpoint (flushed per record)

Durability contract
-------------------
* **Creation is atomic and idempotent.** The spec is canonicalised
  and serialised once; those bytes are both hashed for the id and
  written as ``spec.json``. The job directory is staged under a
  private temp name (``spec.json`` and ``state.json`` written
  straight into it, each fsynced, then the stage directory fsynced)
  and ``os.rename``-d into place, followed by an fsync of the jobs
  directory. Since the id is the spec's content hash, a retried
  ``POST`` of the same work finds the directory already there (the
  rename fails with ``EEXIST``/``ENOTEMPTY``) and simply adopts the
  existing job.
* **State transitions are atomic.** ``state.json`` is written to a
  temp file, fsynced, ``os.replace``-d over the old one, and the
  directory entry fsynced -- a crash leaves either the old state or
  the new one, never a torn file.
* **Records are the campaign checkpoint.** ``records.jsonl`` follows
  the repo-wide resume contract (per-record flush, torn final line =
  crash residue); a job found ``running`` at startup was interrupted
  by a crash and is flipped back to ``queued`` -- re-running it
  resumes from the checkpoint and finishes the file byte-identical to
  an uninterrupted run.

The state machine::

    queued -> running -> done
                      -> failed
    queued/running -> cancelled
    running -> queued          (crash recovery, graceful drain)
    failed/cancelled -> queued (explicit resubmission)
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from .payload import canonical_bytes, content_key

__all__ = ["Job", "JobStore", "TransitionError", "STATES"]

STATES = ("queued", "running", "done", "failed", "cancelled")

_ALLOWED = {
    "queued": {"running", "cancelled"},
    "running": {"done", "failed", "cancelled", "queued"},
    "done": set(),
    "failed": {"queued"},
    "cancelled": {"queued"},
}


class TransitionError(RuntimeError):
    """An illegal job state transition (e.g. cancelling a done job)."""


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_new(path: str, payload: bytes, mode: int) -> None:
    """Create ``path`` (``mode`` before the umask) holding ``payload``,
    fsynced."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def _write_atomic(path: str, payload: bytes) -> None:
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".state-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(d)


#: read size for scanning ``records.jsonl``
_CHUNK = 1 << 16


@dataclass
class Job:
    """One journaled job (a snapshot; re-read for fresh state)."""

    id: str
    path: str
    state: str
    created: float
    updated: float
    error: str = ""
    detail: dict = field(default_factory=dict)

    @property
    def spec_path(self) -> str:
        return os.path.join(self.path, "spec.json")

    @property
    def records_path(self) -> str:
        return os.path.join(self.path, "records.jsonl")

    def spec(self) -> dict:
        with open(self.spec_path) as fh:
            return json.load(fh)

    def record_count(self) -> int:
        """Complete (newline-terminated) records on disk right now."""
        try:
            with open(self.records_path, "rb", buffering=0) as fh:
                count = 0
                while chunk := fh.read(_CHUNK):
                    count += chunk.count(b"\n")
                return count
        except FileNotFoundError:
            return 0

    def records_length(self) -> int:
        """Bytes of ``records.jsonl`` up to its last complete record
        (0 when there is none): the file is scanned backwards from its
        end, so a torn final line costs one chunk, not the whole file."""
        try:
            with open(self.records_path, "rb", buffering=0) as fh:
                end = os.fstat(fh.fileno()).st_size
                while end > 0:
                    start = max(0, end - _CHUNK)
                    fh.seek(start)
                    last = fh.read(end - start).rfind(b"\n")
                    if last >= 0:
                        return start + last + 1
                    end = start
                return 0
        except FileNotFoundError:
            return 0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "created": self.created,
            "updated": self.updated,
            "error": self.error,
            "records": self.record_count(),
            **self.detail,
        }


def _job(jid: str, path: str, st: dict) -> Job:
    """The :class:`Job` snapshot of a ``state.json`` mapping."""
    return Job(
        id=jid,
        path=path,
        state=st["state"],
        created=st["created"],
        updated=st["updated"],
        error=st.get("error", ""),
        detail=st.get("detail", {}),
    )


class JobStore:
    """The job directory tree under ``<root>/jobs``."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)

    # -- creation -------------------------------------------------------
    def create(self, spec: Any) -> tuple[Job, bool]:
        """Journal a new job for ``spec``; returns ``(job, created)``.

        Idempotent: the id is the spec's content hash, and a lost-race
        or retried creation adopts the existing directory.
        """
        data = canonical_bytes(spec)
        jid = content_key(data)
        path = os.path.join(self.jobs_dir, jid)
        if not os.path.isdir(path):
            stage = tempfile.mkdtemp(dir=self.jobs_dir, prefix=".new-")
            try:
                _write_new(os.path.join(stage, "spec.json"), data, 0o666)
                now = time.time()
                st = {"state": "queued", "created": now, "updated": now,
                      "error": "", "detail": {}}
                # nobody sees the stage directory: no temp file and
                # replace, the rename below publishes both files at once
                # (0o600, the mode of every later transition's temp file)
                _write_new(
                    os.path.join(stage, "state.json"),
                    json.dumps(st).encode(),
                    0o600,
                )
                _fsync_dir(stage)
                try:
                    os.rename(stage, path)  # atomic publish
                    _fsync_dir(self.jobs_dir)
                    return _job(jid, path, st), True
                except OSError as exc:
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                    # lost the creation race: adopt the winner below
            finally:
                if os.path.isdir(stage):
                    for name in os.listdir(stage):
                        os.unlink(os.path.join(stage, name))
                    os.rmdir(stage)
        return self.get(jid), False

    # -- lookup ---------------------------------------------------------
    def get(self, jid: str) -> Job:
        path = os.path.join(self.jobs_dir, jid)
        state_path = os.path.join(path, "state.json")
        with open(state_path) as fh:  # FileNotFoundError -> 404 upstream
            st = json.load(fh)
        return _job(jid, path, st)

    def ids(self) -> list[str]:
        return sorted(
            d for d in os.listdir(self.jobs_dir)
            if not d.startswith(".")
            and os.path.isfile(os.path.join(self.jobs_dir, d, "state.json"))
        )

    def jobs(self) -> list[Job]:
        return [self.get(jid) for jid in self.ids()]

    # -- the state machine ----------------------------------------------
    def transition(
        self,
        jid: str,
        to: str,
        *,
        error: str = "",
        detail: dict | None = None,
        expect: str | None = None,
    ) -> Job:
        """Atomically move job ``jid`` to state ``to``.

        ``expect`` pins the current state (a mismatch raises
        :class:`TransitionError`, e.g. a cancel racing a completion);
        without it any transition legal from the current state is
        applied.
        """
        if to not in STATES:
            raise TransitionError(f"unknown state {to!r}")
        job = self.get(jid)
        if expect is not None and job.state != expect:
            raise TransitionError(
                f"job {jid} is {job.state}, expected {expect}"
            )
        if to != job.state and to not in _ALLOWED[job.state]:
            raise TransitionError(f"job {jid}: illegal {job.state} -> {to}")
        st = {
            "state": to,
            "created": job.created,
            "updated": time.time(),
            "error": error,
            "detail": detail if detail is not None else job.detail,
        }
        _write_atomic(
            os.path.join(job.path, "state.json"), json.dumps(st).encode()
        )
        return _job(jid, job.path, st)

    # -- crash recovery -------------------------------------------------
    def recover(self) -> list[Job]:
        """Startup sweep: jobs left ``running`` by a crashed server are
        flipped back to ``queued``; returns every queued job in
        submission order (creation time, then id) for re-enqueueing."""
        queued: list[Job] = []
        for jid in self.ids():
            job = self.get(jid)
            if job.state == "running":
                job = self.transition(
                    jid, "queued",
                    error="",
                    detail={**job.detail, "recovered": True},
                )
            if job.state == "queued":
                queued.append(job)
        queued.sort(key=lambda j: (j.created, j.id))
        return queued
