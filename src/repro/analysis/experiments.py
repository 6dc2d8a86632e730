"""Campaign records and their serialisation.

One :class:`ScenarioRecord` per (tree, p, algorithm) holds the measured
makespan and peak memory together with the two lower bounds of
Section 6.3 (sequential-postorder memory; ``max(W/p, CP)`` makespan).
Every table and figure of the paper is a pure function of these records,
implemented in :mod:`repro.analysis.metrics` /
:mod:`repro.analysis.tables` / :mod:`repro.analysis.figures`. The
records themselves come from one runner,
:func:`repro.analysis.campaign.run_campaign`; the paper's grid is
``run_campaign(instances, Campaign(algorithms=tuple(HEURISTICS),
processor_counts=...))``.

``save_records`` / ``load_records`` support both the historical JSON
array format and append-friendly JSON Lines, and both write paths are
crash-safe: array writes go through a temp file plus atomic rename,
JSONL appends flush after every record, and ``load_records`` recovers
from a truncated final line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.testing import faults

__all__ = [
    "FailedRecord",
    "ScenarioRecord",
    "save_records",
    "load_records",
    "iter_records",
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


def save_records(
    records: Sequence[ScenarioRecord], path: str, append: bool = False
) -> None:
    """Serialise records for later analysis / plotting (crash-safe).

    Paths ending in ``.jsonl`` are written as JSON Lines (one record per
    line), which supports ``append=True`` for chunked streaming; any
    other path gets the historical indented JSON array. Fresh writes go
    through a temp file in the same directory followed by an atomic
    rename, so a crash mid-write never destroys an existing file;
    appends flush after every record, so a crash leaves at most one
    truncated final line (which :func:`load_records` and the campaign
    resume path recover from).
    """
    jsonl = str(path).endswith(".jsonl")
    if not jsonl and append:
        raise ValueError("append mode requires a .jsonl path")
    if jsonl and append:
        with open(path, "a") as fh:
            for r in records:
                line = json.dumps(asdict(r)) + "\n"
                faults.maybe_truncate_write(fh, line)
                fh.write(line)
                fh.flush()
            os.fsync(fh.fileno())
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            if jsonl:
                for r in records:
                    fh.write(json.dumps(asdict(r)))
                    fh.write("\n")
            else:
                json.dump([asdict(r) for r in records], fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fsync_dir(path: str) -> None:
    """fsync the directory containing ``path``, so the atomic rename
    itself is durable (best-effort: directory fds are a POSIX notion)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX / restricted dirs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def load_records(
    path: str, include_failed: bool = False
) -> list[ScenarioRecord | FailedRecord]:
    """Load records written by :func:`save_records` (JSON or JSONL).

    ``.jsonl`` files are read by the one JSONL scanner of
    :mod:`repro.analysis.store`: a truncated *final* line -- the
    possible residue of a crashed streaming run -- is dropped, and a
    complete line that is not a record raises ``ValueError``. Any other
    path holds the historical JSON array.

    Quarantined scenarios (:class:`FailedRecord` rows, marked by their
    ``failed`` key) are skipped by default so every analysis consumer
    keeps seeing only measured records; pass ``include_failed=True`` to
    get them interleaved at their stream positions.
    """
    return list(iter_records(path, include_failed=include_failed))


def iter_records(path: str, include_failed: bool = False):
    """Stream records from ``path`` without materialising the file.

    The generator twin of :func:`load_records` (same recovery and
    ``include_failed`` semantics): a JSONL checkpoint streams line by
    line and never builds the full list in memory. Historical
    JSON-array files fall back to a whole-file parse (the format is not
    line-delimited).
    """
    from .store import open_store

    if str(path).endswith(".jsonl") or os.path.isdir(path):
        yield from open_store(path).iter_records(include_failed=include_failed)
        return
    with open(path) as fh:
        rows = json.load(fh)
    for row in rows:
        if include_failed or not row.get("failed"):
            yield _record_of_row(row)
