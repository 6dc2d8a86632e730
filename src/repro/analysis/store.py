"""Record stores: pluggable persistence behind ``save_records``/``load_records``.

Campaign output has always been flat JSONL -- perfect for crash-safe
streaming (append one line per record, flush, fsync), terrible for
million-record analysis (every consumer re-parses and loops per
record). This module puts a small :class:`RecordStore` abstraction
behind the existing contract with two backends:

* :class:`JsonlStore` -- the historical format, byte-for-byte unchanged
  (appends delegate to :func:`~repro.analysis.experiments.save_records`,
  so fault injection, flush/fsync ordering and torn-tail recovery are
  literally the same code path);
* :class:`ColumnarStore` -- a directory of immutable npz **segment**
  files (one numpy array per column) plus a small JSON ``manifest.json``
  and an open JSONL **tail**. Appends stream to the tail exactly like
  the JSONL backend (same per-record flush, same fault seam); once the
  tail reaches ``seal_rows`` records it is *sealed*: parsed once,
  written as one columnar segment, and the manifest is atomically
  flipped. Analysis then loads columns with ``np.load`` instead of a
  million ``json.loads`` calls.

Crash-safety of the columnar backend (the resume contract of
:func:`repro.analysis.campaign.run_campaign` must hold verbatim):

* tail appends write ``record + "\\n"`` in one buffer and flush per
  record, so crash residue is exactly one unterminated final line --
  recovery drops it, identical to the JSONL rules;
* sealing first publishes the segment file (temp + atomic rename),
  then atomically rewrites the manifest referencing it **and** bumping
  the tail generation (``tail-<gen>.jsonl``), then creates the new
  empty tail and unlinks the old one. The manifest write is the single
  commit point: a crash on either side leaves a consistent store, and
  unreferenced segment/tail files are garbage-collected on the next
  ``reset``/``seal``/``truncate``;
* ``truncate(k)`` (what resume and ``--retry-failed`` use) keeps the
  first ``k`` records exactly, slicing a sealed segment when the cut
  lands inside one.

Shard files from distributed runs merge with :func:`merge_stores`
(CLI: ``repro merge``); any store converts to any other with
:func:`pack_store` (CLI: ``repro pack``), which is also how the tests
prove a columnar campaign record-for-record equal to a JSONL one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.testing import faults

from .experiments import (
    FailedRecord,
    ScenarioRecord,
    _fsync_dir,
    save_records,
)

__all__ = [
    "RecordColumns",
    "RecordStore",
    "JsonlStore",
    "ColumnarStore",
    "open_store",
    "pack_store",
    "merge_stores",
    "STORE_BACKENDS",
    "DEFAULT_SEAL_ROWS",
]

#: selectable backend names (``auto`` resolves by path / manifest)
STORE_BACKENDS = ("auto", "jsonl", "columnar")

#: tail records per columnar segment (override: ``REPRO_STORE_SEAL_ROWS``)
DEFAULT_SEAL_ROWS = 65536

_MANIFEST = "manifest.json"
_FORMAT = "repro-store"

#: single-writer lock file of directory stores (pid-stamped, O_EXCL)
_WRITER_LOCK = ".writer.lock"

#: writer-lock refcounts of this process, keyed by store realpath.
#: Several store objects of one process may write the same directory
#: (their calls are serialized by the caller -- the historical
#: contract); they share the process's on-disk lock, which is unlinked
#: when the last of them releases. The dict also distinguishes "this
#: process holds the lock" from "a dead process with our recycled pid
#: number left it behind" (stale: break it).
_LIVE_LOCKS: dict[str, int] = {}
_LIVE_LOCKS_GUARD = threading.Lock()

#: the record schema, column-major. ``error``/``attempts``/``failed``
#: carry :class:`FailedRecord` rows; metric columns are NaN there (the
#: NaN never reaches a caller -- failed rows materialise as
#: ``FailedRecord``, which has no metric fields).
_STR_COLS = ("tree", "heuristic", "error")
_INT_COLS = ("n", "p", "attempts")
_FLOAT_COLS = ("makespan", "memory", "memory_lb", "makespan_lb")
_ALL_COLS = _STR_COLS + _INT_COLS + _FLOAT_COLS + ("failed",)


def _str_array(values: Sequence[str]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=str)
    if arr.dtype.itemsize == 0:  # np.asarray([], str) -> '<U0', unsavable
        arr = arr.astype("<U1")
    return arr


@dataclass(frozen=True)
class RecordColumns:
    """A record stream as parallel numpy columns (the analysis currency).

    Row order is the stream order -- :class:`FailedRecord` rows keep
    their positions (``failed`` mask), so ``to_records(include_failed=
    True)`` reproduces the interleaving of ``load_records`` exactly.
    """

    tree: np.ndarray
    heuristic: np.ndarray
    error: np.ndarray
    n: np.ndarray
    p: np.ndarray
    attempts: np.ndarray
    makespan: np.ndarray
    memory: np.ndarray
    memory_lb: np.ndarray
    makespan_lb: np.ndarray
    failed: np.ndarray

    def __len__(self) -> int:
        return int(self.tree.shape[0])

    @staticmethod
    def empty() -> "RecordColumns":
        return RecordColumns(
            tree=np.empty(0, "<U1"),
            heuristic=np.empty(0, "<U1"),
            error=np.empty(0, "<U1"),
            n=np.empty(0, np.int64),
            p=np.empty(0, np.int64),
            attempts=np.empty(0, np.int64),
            makespan=np.empty(0, np.float64),
            memory=np.empty(0, np.float64),
            memory_lb=np.empty(0, np.float64),
            makespan_lb=np.empty(0, np.float64),
            failed=np.empty(0, bool),
        )

    @staticmethod
    def from_records(
        records: Iterable[ScenarioRecord | FailedRecord],
    ) -> "RecordColumns":
        return RecordColumns.from_rows(asdict(r) for r in records)

    @staticmethod
    def from_rows(rows: Iterable[dict]) -> "RecordColumns":
        """Build columns from parsed JSON rows (the load fast path)."""
        cols: dict[str, list] = {name: [] for name in _ALL_COLS}
        for row in rows:
            failed = bool(row.get("failed"))
            cols["failed"].append(failed)
            cols["tree"].append(row["tree"])
            cols["heuristic"].append(row["heuristic"])
            cols["n"].append(row["n"])
            cols["p"].append(row["p"])
            cols["error"].append(row.get("error", "") if failed else "")
            cols["attempts"].append(row.get("attempts", 0) if failed else 0)
            for name in _FLOAT_COLS:
                cols[name].append(np.nan if failed else row[name])
        return RecordColumns(
            tree=_str_array(cols["tree"]),
            heuristic=_str_array(cols["heuristic"]),
            error=_str_array(cols["error"]),
            n=np.asarray(cols["n"], np.int64),
            p=np.asarray(cols["p"], np.int64),
            attempts=np.asarray(cols["attempts"], np.int64),
            makespan=np.asarray(cols["makespan"], np.float64),
            memory=np.asarray(cols["memory"], np.float64),
            memory_lb=np.asarray(cols["memory_lb"], np.float64),
            makespan_lb=np.asarray(cols["makespan_lb"], np.float64),
            failed=np.asarray(cols["failed"], bool),
        )

    @staticmethod
    def concat(parts: Sequence["RecordColumns"]) -> "RecordColumns":
        parts = [c for c in parts if len(c)]
        if not parts:
            return RecordColumns.empty()
        if len(parts) == 1:
            return parts[0]
        return RecordColumns(
            **{
                name: np.concatenate([getattr(c, name) for c in parts])
                for name in _ALL_COLS
            }
        )

    def take(self, index) -> "RecordColumns":
        """Rows selected by a boolean mask or integer index array."""
        return RecordColumns(
            **{name: getattr(self, name)[index] for name in _ALL_COLS}
        )

    def measured(self) -> "RecordColumns":
        """The :class:`ScenarioRecord` rows only (failed rows dropped)."""
        if not self.failed.any():
            return self
        return self.take(~self.failed)

    def memory_ratio(self) -> np.ndarray:
        """Vectorised :attr:`ScenarioRecord.memory_ratio` (``inf`` on a
        degenerate zero baseline, like the scalar property)."""
        out = np.full(len(self), np.inf)
        ok = self.memory_lb > 0
        np.divide(self.memory, self.memory_lb, out=out, where=ok)
        return out

    def makespan_ratio(self) -> np.ndarray:
        """Vectorised :attr:`ScenarioRecord.makespan_ratio`."""
        out = np.full(len(self), np.inf)
        ok = self.makespan_lb > 0
        np.divide(self.makespan, self.makespan_lb, out=out, where=ok)
        return out

    def to_records(
        self, include_failed: bool = False
    ) -> list[ScenarioRecord | FailedRecord]:
        out: list[ScenarioRecord | FailedRecord] = []
        for i in range(len(self)):
            if self.failed[i]:
                if include_failed:
                    out.append(
                        FailedRecord(
                            tree=str(self.tree[i]),
                            n=int(self.n[i]),
                            p=int(self.p[i]),
                            heuristic=str(self.heuristic[i]),
                            error=str(self.error[i]),
                            attempts=int(self.attempts[i]),
                        )
                    )
            else:
                out.append(
                    ScenarioRecord(
                        tree=str(self.tree[i]),
                        n=int(self.n[i]),
                        p=int(self.p[i]),
                        heuristic=str(self.heuristic[i]),
                        makespan=float(self.makespan[i]),
                        memory=float(self.memory[i]),
                        memory_lb=float(self.memory_lb[i]),
                        makespan_lb=float(self.makespan_lb[i]),
                    )
                )
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _ALL_COLS}


def _record_of_row(row: dict) -> ScenarioRecord | FailedRecord:
    return FailedRecord(**row) if row.get("failed") else ScenarioRecord(**row)


def _scan_jsonl(
    path: str, what: str = "file", lenient_tail: bool = False
) -> Iterator[tuple[dict, int]]:
    """Yield ``(row, end_offset)`` per complete JSONL line of ``path``.

    An unterminated final line is crash residue and is dropped -- unless
    ``lenient_tail`` and it parses (hand-written files without a
    trailing newline), matching ``load_records``. A malformed *complete*
    line cannot be crash residue and raises ``ValueError``.
    """
    pos = 0
    last: bytes | None = None
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                last = raw
                break
            end = pos + len(raw)
            line = raw.strip()
            if line:
                try:
                    row = json.loads(line)
                except ValueError:
                    raise ValueError(
                        f"{path}: malformed record on a complete line "
                        f"(not a truncated tail; the {what} is corrupt)"
                    ) from None
                yield row, end
            pos = end
    if lenient_tail and last is not None and last.strip():
        try:
            row = json.loads(last)
        except ValueError:
            return  # truncated final line: recoverable crash residue
        yield row, pos + len(last)


# ----------------------------------------------------------------------
# the store contract
# ----------------------------------------------------------------------
class RecordStore:
    """One durable, appendable, resumable record stream.

    The contract the campaign runtime relies on:

    * ``append`` is record-atomic under crashes: a record either lands
      completely or leaves droppable residue (never a corrupt store);
    * ``recover`` yields exactly the completely-written records, in
      stream order, with :class:`FailedRecord` rows interleaved;
    * ``truncate(k)`` cuts the stream back to its first ``k`` records
      (dropping any crash residue as well);
    * ``columns`` loads the stream as :class:`RecordColumns`.
    """

    backend = "abstract"

    path: str

    def exists(self) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Create the store empty (truncating any previous content)."""
        raise NotImplementedError

    def append(self, records: Sequence[ScenarioRecord | FailedRecord]) -> None:
        raise NotImplementedError

    def recover(self) -> Iterator[ScenarioRecord | FailedRecord]:
        """Stream the completely-written records (strict: a final line
        without its newline is crash residue and is dropped)."""
        raise NotImplementedError

    def iter_records(
        self, include_failed: bool = False
    ) -> Iterator[ScenarioRecord | FailedRecord]:
        """Stream records with ``load_records`` semantics."""
        for record in self.recover():
            if include_failed or not isinstance(record, FailedRecord):
                yield record

    def truncate(self, keep: int) -> None:
        raise NotImplementedError

    def count(self) -> int:
        return sum(1 for _ in self.recover())

    def columns(self, include_failed: bool = True) -> RecordColumns:
        cols = RecordColumns.from_rows(
            asdict(r) for r in self.recover()
        )
        return cols if include_failed else cols.measured()

    def finalize(self) -> None:
        """Optional end-of-run compaction hook (no-op by default)."""

    def close(self) -> None:
        """Release writer resources, if any (no-op by default)."""


class JsonlStore(RecordStore):
    """The historical single-file JSONL checkpoint, byte-identical."""

    backend = "jsonl"

    def __init__(self, path: str):
        if not str(path).endswith(".jsonl"):
            raise ValueError(
                "stream checkpoint must be a .jsonl path (append-friendly); "
                "directory stores need --store columnar"
            )
        self.path = str(path)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def reset(self) -> None:
        open(self.path, "w").close()

    def append(self, records: Sequence[ScenarioRecord | FailedRecord]) -> None:
        # the one true JSONL append path (fault seam, flush per record,
        # fsync at the end) -- byte-identity with historical checkpoints
        # is by construction, not by reimplementation.
        save_records(records, self.path, append=True)

    def recover(self) -> Iterator[ScenarioRecord | FailedRecord]:
        for row, _ in _scan_jsonl(self.path, what="checkpoint"):
            yield _record_of_row(row)

    def iter_records(
        self, include_failed: bool = False
    ) -> Iterator[ScenarioRecord | FailedRecord]:
        for row, _ in _scan_jsonl(self.path, what="file", lenient_tail=True):
            if include_failed or not row.get("failed"):
                yield _record_of_row(row)

    def truncate(self, keep: int) -> None:
        end = 0
        k = 0
        for _, offset in _scan_jsonl(self.path, what="checkpoint"):
            if k == keep:
                break
            end = offset
            k += 1
        if k < keep:
            raise ValueError(
                f"cannot truncate {self.path!r} to {keep} records: only {k} present"
            )
        with open(self.path, "r+b") as fh:
            fh.truncate(end)

    def columns(self, include_failed: bool = True) -> RecordColumns:
        cols = RecordColumns.from_rows(
            row for row, _ in _scan_jsonl(self.path, what="file", lenient_tail=True)
        )
        return cols if include_failed else cols.measured()


class ColumnarStore(RecordStore):
    """Directory of sealed npz segments + JSONL tail (see module doc)."""

    backend = "columnar"

    def __init__(self, path: str, seal_rows: int | None = None):
        self.path = str(path)
        if seal_rows is None:
            seal_rows = int(
                os.environ.get("REPRO_STORE_SEAL_ROWS", DEFAULT_SEAL_ROWS)
            )
        self.seal_rows = max(1, int(seal_rows))
        self._tail_rows: int | None = None  # lazy; tracked across appends
        self._locked = False

    # -- single-writer lock --------------------------------------------
    # Two processes appending to one store directory interleave tail
    # lines and race the manifest commit; the lock makes the second
    # writer fail fast instead. Same pattern as the ``_ckernel`` compile
    # lock: an O_EXCL-created file stamped with the writer's pid. A lock
    # whose holder is dead (crashed or SIGKILLed mid-campaign -- the
    # resume path must keep working) is broken automatically; reads
    # never take the lock.
    @property
    def _lock_path(self) -> str:
        return os.path.join(self.path, _WRITER_LOCK)

    def _lock_holder(self) -> int | None:
        try:
            with open(self._lock_path) as fh:
                return int(fh.read().strip() or "0") or None
        except (OSError, ValueError):
            return None

    def _acquire_writer(self) -> None:
        if self._locked:
            return
        os.makedirs(self.path, exist_ok=True)
        real = os.path.realpath(self.path)
        for attempt in range(2):
            with _LIVE_LOCKS_GUARD:
                if real in _LIVE_LOCKS:  # this process already holds it
                    _LIVE_LOCKS[real] += 1
                    self._locked = True
                    return
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                holder = self._lock_holder()
                with _LIVE_LOCKS_GUARD:
                    live_here = real in _LIVE_LOCKS
                if live_here:
                    continue  # raced a sibling of this process: share it
                if attempt == 0 and self._lock_stale(holder):
                    try:
                        os.unlink(self._lock_path)
                    except OSError:  # pragma: no cover - raced
                        pass
                    continue
                raise RuntimeError(
                    f"{self.path!r} already has a live writer"
                    + (f" (pid {holder})" if holder else "")
                    + ": a record store accepts one writer process at a "
                    f"time ({_WRITER_LOCK} is released on finalize/close "
                    "and broken automatically once its holder exits)"
                )
            with os.fdopen(fd, "w") as fh:
                fh.write(f"{os.getpid()}\n")
            with _LIVE_LOCKS_GUARD:
                _LIVE_LOCKS[real] = _LIVE_LOCKS.get(real, 0) + 1
            self._locked = True
            return

    def _lock_stale(self, holder: int | None) -> bool:
        """Is the on-disk lock the residue of a dead writer?

        A readable pid that no longer runs -- or our own pid without a
        live lock registered (a recycled pid from a crashed run) -- is
        stale. A lock without a readable pid is in the tiny window
        between creation and stamp; only its age can tell, so break it
        after the same staleness bound the compile lock uses.
        """
        if holder is None:
            try:
                age = time.time() - os.stat(self._lock_path).st_mtime
            except OSError:
                return True  # vanished: retry the acquisition
            return age > 150.0
        if holder == os.getpid():
            return True
        try:
            os.kill(holder, 0)
        except ProcessLookupError:
            return True
        except OSError:  # pragma: no cover - EPERM: alive, not ours
            return False
        return False

    def _release_writer(self) -> None:
        if not self._locked:
            return
        self._locked = False
        real = os.path.realpath(self.path)
        with _LIVE_LOCKS_GUARD:
            count = _LIVE_LOCKS.get(real, 1) - 1
            if count > 0:
                _LIVE_LOCKS[real] = count
                return  # a sibling object of this process still writes
            _LIVE_LOCKS.pop(real, None)
        try:
            os.unlink(self._lock_path)
        except OSError:  # pragma: no cover - best-effort
            pass

    def close(self) -> None:
        """Release the writer lock (reading never takes it)."""
        self._release_writer()

    def __del__(self):  # pragma: no cover - interpreter-dependent
        try:
            self._release_writer()
        except Exception:
            pass

    # -- manifest ------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.path, _MANIFEST)

    def exists(self) -> bool:
        return os.path.exists(self._manifest_path)

    def _manifest(self) -> dict:
        with open(self._manifest_path) as fh:
            m = json.load(fh)
        if m.get("format") != _FORMAT:
            raise ValueError(f"{self._manifest_path}: not a {_FORMAT} manifest")
        if m.get("backend") != self.backend:
            raise ValueError(
                f"{self.path!r} is a {m.get('backend')!r} store, "
                f"opened as {self.backend!r}"
            )
        return m

    def _write_manifest(self, m: dict) -> None:
        """The commit point: temp file + fsync + atomic rename."""
        tmp = os.path.join(self.path, f".manifest.tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(m, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._manifest_path)
        _fsync_dir(self._manifest_path)

    def _tail_path(self, m: dict) -> str:
        return os.path.join(self.path, f"tail-{m['tail_gen']:06d}.jsonl")

    def reset(self) -> None:
        self._acquire_writer()
        os.makedirs(self.path, exist_ok=True)
        m = {
            "format": _FORMAT,
            "version": 1,
            "backend": self.backend,
            "segments": [],
            "tail_gen": 0,
            "next_id": 0,
        }
        self._write_manifest(m)
        open(self._tail_path(m), "w").close()
        self._gc(m)
        self._tail_rows = 0

    def _ensure(self) -> dict:
        if not self.exists():
            self.reset()
        return self._manifest()

    def _gc(self, m: dict) -> None:
        """Unlink files the manifest does not reference (crash debris:
        orphaned segments, stale tail generations, temp files)."""
        keep = {_MANIFEST, os.path.basename(self._tail_path(m))}
        keep.update(seg["file"] for seg in m["segments"])
        for name in os.listdir(self.path):
            if name in keep:
                continue
            if (
                name.startswith(("seg-", "tail-", ".manifest.tmp", ".seg.tmp"))
            ):
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:  # pragma: no cover - best-effort
                    pass

    # -- segments ------------------------------------------------------
    def _segment_write(self, cols: RecordColumns, target: str) -> None:
        with open(target, "wb") as fh:
            np.savez(fh, **cols.arrays())
            fh.flush()
            os.fsync(fh.fileno())

    def _segment_read(self, path: str) -> RecordColumns:
        with np.load(path) as data:
            return RecordColumns(**{name: data[name] for name in _ALL_COLS})

    def _publish_segment(self, m: dict, cols: RecordColumns) -> dict:
        """Write ``cols`` as the next segment file (atomic), return its
        manifest entry. The manifest itself is NOT rewritten here."""
        fname = f"seg-{m['next_id']:06d}.npz"
        tmp = os.path.join(self.path, f".seg.tmp.{os.getpid()}.{fname}")
        final = os.path.join(self.path, fname)
        try:
            self._segment_write(cols, tmp)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, final)
        _fsync_dir(final)
        m["next_id"] += 1
        return {"file": fname, "rows": len(cols)}

    # -- tail ----------------------------------------------------------
    def _tail_scan(self, m: dict) -> Iterator[tuple[dict, int]]:
        tail = self._tail_path(m)
        if not os.path.exists(tail):
            return iter(())
        return _scan_jsonl(tail, what="checkpoint")

    def _tail_count(self, m: dict) -> int:
        if self._tail_rows is None:
            self._tail_rows = sum(1 for _ in self._tail_scan(m))
        return self._tail_rows

    def append(self, records: Sequence[ScenarioRecord | FailedRecord]) -> None:
        self._acquire_writer()
        m = self._ensure()
        rows = self._tail_count(m)
        with open(self._tail_path(m), "a") as fh:
            for r in records:
                line = json.dumps(asdict(r)) + "\n"
                faults.maybe_truncate_write(fh, line)
                fh.write(line)
                fh.flush()
            os.fsync(fh.fileno())
        self._tail_rows = rows + len(records)
        if self._tail_rows >= self.seal_rows:
            self._seal(m)

    def seal(self) -> None:
        """Compact the open tail into a sealed columnar segment."""
        self._acquire_writer()
        self._seal(self._ensure())

    def _seal(self, m: dict) -> None:
        rows = [row for row, _ in self._tail_scan(m)]
        old_tail = self._tail_path(m)
        if rows:
            entry = self._publish_segment(m, RecordColumns.from_rows(rows))
            m["segments"].append(entry)
        m["tail_gen"] += 1
        self._write_manifest(m)  # commit: segment + new generation live
        open(self._tail_path(m), "w").close()
        try:
            os.unlink(old_tail)
        except OSError:  # pragma: no cover - best-effort
            pass
        self._tail_rows = 0

    def finalize(self) -> None:
        """Seal the tail so finished stores are pure-columnar reads,
        then release the writer lock."""
        self._acquire_writer()
        try:
            m = self._ensure()
            if self._tail_count(m):
                self._seal(m)
        finally:
            self._release_writer()

    def extend_columns(self, cols: RecordColumns) -> None:
        """Bulk-append ``cols`` directly as one sealed segment (the
        pack/merge/benchmark path; no JSONL round-trip)."""
        self._acquire_writer()
        m = self._ensure()
        if self._tail_count(m):
            self._seal(m)
            m = self._manifest()
        if not len(cols):
            return
        m["segments"].append(self._publish_segment(m, cols))
        self._write_manifest(m)

    # -- reads ---------------------------------------------------------
    def recover(self) -> Iterator[ScenarioRecord | FailedRecord]:
        m = self._manifest()
        for seg in m["segments"]:
            cols = self._segment_read(os.path.join(self.path, seg["file"]))
            yield from cols.to_records(include_failed=True)
        for row, _ in self._tail_scan(m):
            yield _record_of_row(row)

    def count(self) -> int:
        m = self._manifest()
        return sum(seg["rows"] for seg in m["segments"]) + self._tail_count(m)

    def columns(self, include_failed: bool = True) -> RecordColumns:
        m = self._manifest()
        parts = [
            self._segment_read(os.path.join(self.path, seg["file"]))
            for seg in m["segments"]
        ]
        tail_rows = [row for row, _ in self._tail_scan(m)]
        if tail_rows:
            parts.append(RecordColumns.from_rows(tail_rows))
        cols = RecordColumns.concat(parts)
        return cols if include_failed else cols.measured()

    def truncate(self, keep: int) -> None:
        self._acquire_writer()
        m = self._manifest()
        sealed = sum(seg["rows"] for seg in m["segments"])
        if keep > sealed + self._tail_count(m):
            raise ValueError(
                f"cannot truncate {self.path!r} to {keep} records: "
                f"only {sealed + self._tail_count(m)} present"
            )
        if keep >= sealed:
            # cut inside the tail: byte-truncate after its (keep-sealed)th
            # record, which also drops any torn crash residue.
            end = 0
            k = 0
            for _, offset in self._tail_scan(m):
                if k == keep - sealed:
                    break
                end = offset
                k += 1
            with open(self._tail_path(m), "r+b") as fh:
                fh.truncate(end)
            self._tail_rows = keep - sealed
            return
        # the cut lands in the sealed part: keep whole segments up to
        # it, re-publish a sliced segment if it lands inside one, drop
        # the tail entirely (its records are all past the cut).
        segments: list[dict] = []
        left = keep
        for seg in m["segments"]:
            if left >= seg["rows"]:
                segments.append(seg)
                left -= seg["rows"]
                continue
            if left > 0:
                cols = self._segment_read(os.path.join(self.path, seg["file"]))
                segments.append(
                    self._publish_segment(m, cols.take(np.arange(left)))
                )
            break
        m["segments"] = segments
        m["tail_gen"] += 1
        self._write_manifest(m)
        open(self._tail_path(m), "w").close()
        self._gc(m)
        self._tail_rows = 0


# ----------------------------------------------------------------------
# resolution, conversion, merging
# ----------------------------------------------------------------------
def open_store(
    path: str, backend: str = "auto", seal_rows: int | None = None
) -> RecordStore:
    """Open (or designate) the record store at ``path``.

    ``backend="auto"`` resolves ``.jsonl`` paths to the JSONL backend
    and existing store directories to whatever their manifest says; a
    fresh directory store must be named explicitly (``columnar``).
    """
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r}; expected one of {STORE_BACKENDS}"
        )
    path = str(path)
    if backend == "auto":
        manifest = os.path.join(path, _MANIFEST)
        if os.path.exists(manifest):
            with open(manifest) as fh:
                backend = json.load(fh).get("backend", "columnar")
            if backend != "columnar":
                raise ValueError(f"{manifest}: unknown store backend {backend!r}")
        else:
            backend = "jsonl"
    if backend == "jsonl":
        return JsonlStore(path)
    return ColumnarStore(path, seal_rows=seal_rows)


def pack_store(src: str | RecordStore, dst: str | RecordStore, backend: str = "auto") -> int:
    """Convert/compact ``src`` into ``dst`` (any backend to any other).

    ``dst`` is reset first; returns the number of records packed.
    Failed rows are preserved at their stream positions, so packing a
    campaign checkpoint to JSONL and back is the record-for-record
    equivalence oracle the tests (and CI) use.
    """
    src_store = src if isinstance(src, RecordStore) else open_store(src)
    if isinstance(dst, RecordStore):
        dst_store = dst
    else:
        if backend == "auto" and not str(dst).endswith(".jsonl"):
            backend = "columnar"
        dst_store = open_store(dst, backend=backend)
    cols = src_store.columns(include_failed=True)
    dst_store.reset()
    if isinstance(dst_store, ColumnarStore):
        dst_store.extend_columns(cols)
    else:
        dst_store.append(cols.to_records(include_failed=True))
    dst_store.finalize()  # directory stores: release the writer lock
    return len(cols)


def merge_stores(dst: str | RecordStore, sources: Sequence[str | RecordStore],
                 backend: str = "auto") -> int:
    """Concatenate shard stores into ``dst`` in the given order.

    Shards from distributed/supervised runs are contiguous slices of
    one campaign stream; merging them in stream order reproduces the
    single-checkpoint file. ``dst`` is reset first; returns the total
    record count.
    """
    if isinstance(dst, RecordStore):
        dst_store = dst
    else:
        if backend == "auto" and not str(dst).endswith(".jsonl"):
            backend = "columnar"
        dst_store = open_store(dst, backend=backend)
    dst_store.reset()
    total = 0
    for src in sources:
        src_store = src if isinstance(src, RecordStore) else open_store(src)
        cols = src_store.columns(include_failed=True)
        total += len(cols)
        if isinstance(dst_store, ColumnarStore):
            dst_store.extend_columns(cols)
        else:
            dst_store.append(cols.to_records(include_failed=True))
    dst_store.finalize()  # directory stores: release the writer lock
    return total
