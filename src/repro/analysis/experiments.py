"""Batch experiment pipeline: algorithms x trees x processor counts.

One :class:`ScenarioRecord` per (tree, p, algorithm) holds the measured
makespan and peak memory together with the two lower bounds of
Section 6.3 (sequential-postorder memory; ``max(W/p, CP)`` makespan).
Every table and figure of the paper is a pure function of these records,
implemented in :mod:`repro.analysis.metrics` /
:mod:`repro.analysis.tables` / :mod:`repro.analysis.figures`.

:func:`run_experiments` is a thin configuration of the declarative
campaign runner (:mod:`repro.analysis.campaign`) for the paper's grid:
the scenario grid is grouped by tree, and each tree is prepared once
(one :class:`~repro.core.prepared.PreparedTree`) for its whole slice of
the grid. ``workers=N`` runs the tree groups on the supervised worker
pool and produces **byte-identical** records to the in-process run
(property-tested). Records can be streamed to JSONL as they complete
(``stream_to=...``), which bounds memory on large campaigns and leaves
a resumable on-disk trail (see :func:`repro.analysis.campaign.
run_campaign` for resuming); ``save_records`` / ``load_records``
support both the historical JSON array format and append-friendly JSON
Lines, and both write paths are crash-safe: array writes go through a
temp file plus atomic rename, JSONL appends flush after every record,
and ``load_records`` recovers from a truncated final line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.parallel.heuristics import HEURISTICS
from repro.testing import faults
from repro.workloads.dataset import TreeInstance, PROCESSOR_COUNTS

__all__ = [
    "FailedRecord",
    "ScenarioRecord",
    "run_experiments",
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
    """A quarantined (poison) scenario in a supervised campaign.

    Written to the JSONL checkpoint at the scenario's stream position
    when every attempt was exhausted (or the first attempt failed
    deterministically), so the checkpoint stays a verifiable prefix of
    the campaign's scenario stream. Shares the resume key fields
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


def run_experiments(
    instances: Iterable[TreeInstance],
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    heuristics: Sequence[str] | None = None,
    validate: bool = False,
    progress: bool = False,
    workers: int = 1,
    stream_to: str | None = None,
    backend: str | None = None,
) -> list[ScenarioRecord]:
    """Run the full cross product of the paper's Section 6 campaign.

    A thin configuration of :func:`repro.analysis.campaign.run_campaign`
    (the full API: cap-factor grids, resumable checkpoints, retries and
    timeouts); kept for the historical call sites and the paper's
    default grid.

    Parameters
    ----------
    instances, processor_counts:
        the scenario grid (default processor sweep: the paper's five).
    heuristics:
        algorithm names from :mod:`repro.registry` (default: the four
        paper heuristics, preserving the historical behaviour).
    validate:
        re-check schedule validity inside the simulator (slower).
    progress:
        print one line per completed tree.
    workers:
        worker processes; 1 (default) runs in process, more run the
        tree groups on the supervised pool. Results are identical for
        any ``workers`` value.
    stream_to:
        optional ``.jsonl`` path; each tree's records are appended as
        soon as they are available (the file is truncated first), with
        a flush after every record so an interrupted campaign leaves at
        most one truncated line behind.
    backend:
        engine sweep backend forwarded to every algorithm that declares
        it (``"auto"``/``"python"``/``"c"``). All backends are
        bit-identical, so records do not depend on it.
    """
    from .campaign import Campaign, run_campaign

    names = tuple(heuristics) if heuristics is not None else tuple(HEURISTICS)
    campaign = Campaign(
        algorithms=names,
        processor_counts=tuple(processor_counts),
        backend=backend,
        validate=validate,
    )
    return run_campaign(
        instances,
        campaign,
        workers=workers,
        checkpoint=stream_to,
        progress=progress,
    )


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
    if _is_store_dir(path):
        from .store import open_store

        store = open_store(path)
        if not append:
            store.reset()
        store.append(records)
        return
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


def _is_store_dir(path: str) -> bool:
    """True when ``path`` is a directory record store (the columnar
    manifest layout; see :mod:`repro.analysis.store`)."""
    return os.path.exists(os.path.join(str(path), "manifest.json"))


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

    JSONL files recover from a truncated *final* line -- the possible
    residue of a crashed streaming run: writes always emit
    ``record + "\\n"`` in one buffer, so crash residue is exactly an
    *unterminated* trailing line, which is dropped. A malformed line
    anywhere else (including a newline-terminated final line) cannot be
    crash residue and raises ``ValueError``.

    Quarantined scenarios (:class:`FailedRecord` rows, marked by their
    ``failed`` key) are skipped by default so every analysis consumer
    keeps seeing only measured records; pass ``include_failed=True`` to
    get them interleaved at their stream positions.

    Directory record stores (columnar; see
    :mod:`repro.analysis.store`) load transparently -- any path written
    by a ``--store columnar`` campaign reads back through the same
    function, with identical record streams.
    """
    if _is_store_dir(path):
        from .store import open_store

        return list(open_store(path).iter_records(include_failed=include_failed))
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
    else:
        terminated = text.endswith("\n")
        lines = [line for line in text.splitlines() if line.strip()]
        rows = []
        for k, line in enumerate(lines):
            try:
                rows.append(json.loads(line))
            except ValueError:
                if k == len(lines) - 1 and not terminated:
                    break  # truncated final line: recoverable crash residue
                raise ValueError(
                    f"{path}: malformed record on line {k + 1} "
                    "(not a truncated tail; the file is corrupt)"
                ) from None
    out: list[ScenarioRecord | FailedRecord] = []
    for row in rows:
        if row.get("failed"):
            if include_failed:
                out.append(FailedRecord(**row))
        else:
            out.append(ScenarioRecord(**row))
    return out


def iter_records(path: str, include_failed: bool = False):
    """Stream records from ``path`` without materialising the file.

    The generator twin of :func:`load_records` (same recovery and
    ``include_failed`` semantics) for JSONL checkpoints and directory
    record stores; the campaign resume/prefix-verify and report paths
    run on it, so resuming a million-record checkpoint never builds the
    full list in memory. Historical JSON-array files fall back to a
    whole-file parse (the format is not line-delimited).
    """
    if _is_store_dir(path):
        from .store import open_store

        yield from open_store(path).iter_records(include_failed=include_failed)
        return
    if not str(path).endswith(".jsonl"):
        yield from load_records(path, include_failed=include_failed)
        return
    from .store import JsonlStore

    yield from JsonlStore(path).iter_records(include_failed=include_failed)
