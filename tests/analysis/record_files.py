"""Write and read whole JSONL record files through the one record-file
API (:class:`~repro.analysis.store.JsonlStore`)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.store import JsonlStore, open_store


def write_jsonl(records, path) -> bytes:
    """``records`` as a fresh JSONL record file; returns its bytes."""
    store = JsonlStore(str(path))
    store.reset()
    store.append(records)
    return Path(path).read_bytes()


def read_jsonl(path, include_failed: bool = False) -> list:
    """The records of the file at ``path`` (measured ones only unless
    ``include_failed``)."""
    return list(open_store(str(path)).iter_records(include_failed=include_failed))
