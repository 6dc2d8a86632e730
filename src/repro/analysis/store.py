"""Campaign records, their files, and their analysis columns.

One :class:`ScenarioRecord` per (tree, p, algorithm) holds the measured
makespan and peak memory together with the two lower bounds of
Section 6.3 (sequential-postorder memory; ``max(W/p, CP)`` makespan);
a quarantined scenario is a :class:`FailedRecord` at the same stream
position. Every table and figure of the paper is a pure function of
these records, implemented in :mod:`repro.analysis.metrics` /
:mod:`repro.analysis.tables` / :mod:`repro.analysis.figures`. The
records themselves come from one runner,
:func:`repro.analysis.campaign.run_campaign`; the paper's grid is
``run_campaign(instances, Campaign(algorithms=tuple(HEURISTICS),
processor_counts=...))``.

A campaign's records live in one JSON Lines file, one record per line:
the checkpoint the campaign runtime appends to and resumes from, and
the file ``table1`` / ``report --records`` read back. :class:`JsonlStore`
(reached through :func:`open_store`) is the one record-file API; its
:meth:`~JsonlStore.append` is the one write path (fault-injection seam,
a flush per record, one fsync per call). Every read -- resume,
:meth:`~JsonlStore.iter_records` and :meth:`~JsonlStore.columns` --
goes through :func:`_scan_jsonl`, so they share one set of recovery
rules:

* an unterminated final line is the residue of an interrupted flush
  and is dropped (a resumed checkpoint is truncated there, so the
  continuation stays byte-identical to an uninterrupted run);
* a *complete* line that is not a record -- bad JSON, not an object,
  an unknown or a missing field -- cannot be crash residue and raises
  ``ValueError``.

Analysis reads a file as :class:`RecordColumns`, parallel numpy
columns: the one form the Table 1, groupby and figure code works on
(a record list is converted once, by :meth:`RecordColumns.of`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.testing import faults

__all__ = [
    "FailedRecord",
    "ScenarioRecord",
    "RecordColumns",
    "JsonlStore",
    "open_store",
]


@dataclass(frozen=True)
class ScenarioRecord:
    """Measured performance of one heuristic on one (tree, p) scenario."""

    tree: str
    n: int
    p: int
    heuristic: str
    makespan: float
    memory: float
    memory_lb: float
    makespan_lb: float

    @property
    def memory_ratio(self) -> float:
        """Peak memory relative to the sequential lower bound (Fig. 6
        y-axis). Defined for every record: a zero (degenerate) baseline
        yields ``math.inf`` rather than raising ``ZeroDivisionError``."""
        return self.memory / self.memory_lb if self.memory_lb > 0 else math.inf

    @property
    def makespan_ratio(self) -> float:
        """Makespan relative to the lower bound (Fig. 6 x-axis).
        Defined for every record: a zero (degenerate) baseline yields
        ``math.inf`` rather than raising ``ZeroDivisionError``."""
        return self.makespan / self.makespan_lb if self.makespan_lb > 0 else math.inf


@dataclass(frozen=True)
class FailedRecord:
    """A failed (quarantined) scenario of a campaign, on either runtime.

    Written to the JSONL checkpoint at the scenario's stream position
    when the first attempt failed deterministically (in process or on
    the worker pool), or when the pool exhausted every attempt, so the
    checkpoint stays a verifiable prefix of the campaign's scenario
    stream. Shares the resume key fields
    ``(tree, heuristic, p)`` with :class:`ScenarioRecord`; the
    ``failed`` marker is what tells the two apart on disk. A resumed
    campaign skips these by default and re-runs them (truncating the
    checkpoint at the first one) with ``retry_failed=True``.
    """

    tree: str
    n: int
    p: int
    heuristic: str
    error: str
    attempts: int
    failed: bool = True


def _record_of_row(row: dict) -> ScenarioRecord | FailedRecord:
    return FailedRecord(**row) if row.get("failed") else ScenarioRecord(**row)


#: the record schema, column-major. ``error``/``attempts``/``failed``
#: carry :class:`FailedRecord` rows; metric columns are NaN there (the
#: NaN never reaches a caller -- failed rows materialise as
#: ``FailedRecord``, which has no metric fields).
_STR_COLS = ("tree", "heuristic", "error")
_INT_COLS = ("n", "p", "attempts")
_FLOAT_COLS = ("makespan", "memory", "memory_lb", "makespan_lb")
_ALL_COLS = _STR_COLS + _INT_COLS + _FLOAT_COLS + ("failed",)

#: the exact key sets of the two record kinds on disk
_SCENARIO_KEYS = frozenset(f.name for f in fields(ScenarioRecord))
_FAILED_KEYS = frozenset(f.name for f in fields(FailedRecord))


def _str_array(values: Sequence[str]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=str)
    if arr.dtype.itemsize == 0:  # never a zero-width '<U0' column
        arr = arr.astype("<U1")
    return arr


@dataclass(frozen=True)
class RecordColumns:
    """A record stream as parallel numpy columns (the analysis currency).

    Row order is the stream order -- :class:`FailedRecord` rows keep
    their positions (``failed`` mask).
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
    def of(
        records: "RecordColumns | Iterable[ScenarioRecord | FailedRecord]",
    ) -> "RecordColumns":
        """``records`` as columns: columns pass through, records are
        converted (the one entry conversion of the analysis layer)."""
        if isinstance(records, RecordColumns):
            return records
        return RecordColumns.from_records(records)

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


def _is_record_row(row) -> bool:
    """Does ``row`` have exactly the fields of one record kind?"""
    if not isinstance(row, dict):
        return False
    return row.keys() == (_FAILED_KEYS if row.get("failed") else _SCENARIO_KEYS)


def _scan_jsonl(
    path: str, what: str = "file", lenient_tail: bool = False
) -> Iterator[tuple[dict, int]]:
    """Yield ``(row, end_offset)`` per complete record line of ``path``.

    This is the one JSONL reader (see the module doc for its rules).
    An unterminated final line is dropped -- unless ``lenient_tail``
    and it is a whole record (a hand-written file without a trailing
    newline), which :meth:`JsonlStore.iter_records` accepts.
    """

    def malformed(lineno: int) -> ValueError:
        return ValueError(
            f"{path}:{lineno}: malformed record on a complete line "
            f"(not a truncated tail; the {what} is corrupt)"
        )

    pos = 0
    lineno = 0
    last: bytes | None = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.endswith(b"\n"):
                last = raw
                break
            end = pos + len(raw)
            line = raw.strip()
            if line:
                try:
                    row = json.loads(line)
                except ValueError:
                    row = None
                if not _is_record_row(row):
                    raise malformed(lineno)
                yield row, end
            pos = end
    if lenient_tail and last is not None and last.strip():
        try:
            row = json.loads(last)
        except ValueError:
            return  # truncated final line: recoverable crash residue
        if not _is_record_row(row):
            raise malformed(lineno)
        yield row, pos + len(last)


class JsonlStore:
    """One durable, appendable, resumable JSONL record stream.

    The contract the campaign runtime relies on:

    * ``append`` is record-atomic under crashes: a record either lands
      completely or leaves droppable residue (never a corrupt file);
    * ``recover`` yields exactly the completely-written records, in
      stream order, with :class:`FailedRecord` rows interleaved;
    * ``truncate(k)`` cuts the stream back to its first ``k`` records
      (dropping any crash residue as well);
    * ``columns`` loads the stream as :class:`RecordColumns`.
    """

    def __init__(self, path: str):
        path = str(path)
        if os.path.isdir(path):
            raise ValueError(
                f"{path!r} is a directory: columnar record stores were "
                "removed; convert one to a .jsonl file with `repro pack` "
                "at an earlier commit of this project"
            )
        if not path.endswith(".jsonl"):
            raise ValueError(
                f"stream checkpoint must be a .jsonl path (append-friendly), "
                f"got {path!r}"
            )
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def reset(self) -> None:
        """Create the file empty (truncating any previous content)."""
        open(self.path, "w").close()

    def append(self, records: Sequence[ScenarioRecord | FailedRecord]) -> None:
        """Append ``records``, one line each: a flush after every line,
        one fsync before returning (the fault plan may tear a line)."""
        with open(self.path, "a") as fh:
            for r in records:
                line = json.dumps(asdict(r)) + "\n"
                faults.maybe_truncate_write(fh, line)
                fh.write(line)
                fh.flush()
            os.fsync(fh.fileno())

    def recover(self) -> Iterator[ScenarioRecord | FailedRecord]:
        """Stream the completely-written records (strict: a final line
        without its newline is crash residue and is dropped)."""
        for row, _ in _scan_jsonl(self.path, what="checkpoint"):
            yield _record_of_row(row)

    def iter_records(
        self, include_failed: bool = False
    ) -> Iterator[ScenarioRecord | FailedRecord]:
        """Stream the records (measured ones only unless
        ``include_failed``); lenient where :meth:`recover` is strict: a
        final line without its newline is kept when it is a whole
        record (a hand-written file)."""
        for row, _ in _scan_jsonl(self.path, lenient_tail=True):
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
            row for row, _ in _scan_jsonl(self.path, lenient_tail=True)
        )
        return cols if include_failed else cols.measured()


def open_store(path: str) -> JsonlStore:
    """The record file at ``path`` (a ``.jsonl`` path)."""
    return JsonlStore(path)
