"""Output checks. Every failure is counted against the scenarios it covers.

A record stream is the campaign checkpoint format: one
``json.dumps(asdict(record))`` line per scenario, in stream order.
Records are byte-identical by contract, so a stream is checked against
a reference digest (pinned per seed, the first pass of the run, or an
in-process rerun) and, record by record, against the makespan lower
bound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Iterable

__all__ = [
    "LB_REL_TOL",
    "check_stream",
    "digest",
    "record_lines",
    "table1_findings",
]

#: relative slack of ``makespan >= makespan_lb``. The paper dataset has
#: float weights, and the schedule and the critical-path bound sum the
#: same root path in different orders: at an exact tie the two differ
#: in the last bits (169 of the 1280 Table 1 records at seed 1, by at
#: most 5.2e-15 relative).
LB_REL_TOL = 1e-9


def record_lines(records: Iterable) -> bytes:
    """The checkpoint bytes of ``records`` (the ``save_records`` format)."""
    return "".join(json.dumps(asdict(r)) + "\n" for r in records).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_stream(
    data: bytes, expected: int, reference: str | None = None
) -> tuple[int, list[str]]:
    """``(failed scenarios, problems)`` of a stream of ``expected`` records.

    A digest mismatch against ``reference`` fails every scenario (which
    record changed is unknown). Otherwise each record fails on its own:
    a malformed or unterminated line, a quarantined scenario, or a
    makespan below its lower bound; missing or surplus records fail too.
    """
    if reference is not None and digest(data) != reference:
        return expected, [f"digest {digest(data)[:16]} != expected {reference[:16]}"]
    problems: list[str] = []
    lines = data.split(b"\n")
    torn = lines.pop()  # b"" when the stream ends with a newline
    failed = 0
    if torn:
        failed += 1
        problems.append("unterminated final record")
    for k, line in enumerate(lines):
        try:
            row = json.loads(line)
            ok = not row.get("failed") and row["makespan"] >= row["makespan_lb"] * (
                1 - LB_REL_TOL
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            problems.append(f"record {k}: {line[:120]!r}")
    count = len(lines) + bool(torn)
    if count != expected:
        failed += abs(expected - count)
        problems.append(f"{count} records, expected {expected}")
    return min(failed, expected), problems[:5]


def table1_findings(stats) -> list[str]:
    """The paper's qualitative Table 1 findings that do not hold."""
    by_name = {s.heuristic: s for s in stats}
    out = []
    if by_name["ParSubtrees"].best_memory != max(s.best_memory for s in stats):
        out.append("ParSubtrees does not lead the memory objective")
    if by_name["ParDeepestFirst"].best_makespan != max(s.best_makespan for s in stats):
        out.append("ParDeepestFirst does not lead the makespan objective")
    if by_name["ParDeepestFirst"].avg_dev_best_makespan > 1.0:
        out.append("ParDeepestFirst is more than 1% off the best makespan")
    mem_order = sorted(stats, key=lambda s: s.avg_dev_seq_memory)
    if mem_order[0].heuristic not in ("ParSubtrees", "ParSubtreesOptim"):
        out.append(f"{mem_order[0].heuristic} has the lowest memory deviation")
    if mem_order[-1].heuristic != "ParDeepestFirst":
        out.append(f"{mem_order[-1].heuristic} has the highest memory deviation")
    return out
