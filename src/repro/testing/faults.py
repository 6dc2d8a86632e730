"""Deterministic fault injection for the supervised campaign runtime.

A :class:`FaultPlan` is a declarative list of :class:`Fault` specs that
the runtime consults at well-defined seams:

* ``crash`` -- the worker process calls ``os._exit`` immediately before
  running a matching scenario (a hard crash: no cleanup, no queue
  flush; what an OOM kill looks like from the supervisor's side).
* ``slow`` -- the process running a matching scenario sleeps
  ``seconds`` before sweeping it (in a supervised worker after
  announcing the scenario start, so a supervisor timeout sees a wedged
  worker and kills it; an in-process campaign sleeps at the same
  stream positions).
* ``compile_failure`` -- :mod:`repro.core._ckernel` reports the C
  kernel unavailable, forcing the engine to degrade to the reference
  loop (c -> python).
* ``truncate_write`` -- the ``record``-th JSONL checkpoint append of
  this process writes only a prefix of its line and then hard-exits:
  the power-loss shape the resume path must recover from.

Faults match deterministically on the scenario identity (its
``tree|label|p`` key and/or its position in the dispatch stream) and on
the **attempt number**, never on wall-clock or worker identity -- so a
plan produces the same fault sequence on every run, which is what lets
the chaos suite assert byte-identical records under injected faults.

Activation is either programmatic (:func:`install`, used by in-process
tests and by supervised workers, which re-install the plan they were
handed) or via the ``REPRO_FAULT_PLAN`` environment variable holding
the JSON plan inline or ``@/path/to/plan.json`` (used by the CLI's
hidden ``--fault-plan`` flag and the CI chaos-smoke leg). With no plan
installed and the variable unset every hook is a cheap no-op.

The module is dependency-free on purpose: the production seams
(:mod:`repro.core._ckernel`, :mod:`repro.analysis.store`) import
it unconditionally.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

__all__ = [
    "ENV_VAR",
    "Fault",
    "FaultPlan",
    "active_plan",
    "compile_failure",
    "install",
    "maybe_crash",
    "maybe_slow",
    "maybe_truncate_write",
    "scenario_key",
]

#: environment variable activating a plan process-wide (JSON inline, or
#: ``@path`` to a JSON file)
ENV_VAR = "REPRO_FAULT_PLAN"

#: the fault kinds the runtime consults
KINDS = ("crash", "slow", "compile_failure", "truncate_write")

#: exit code of injected hard crashes (distinguishable from real
#: signals and from Python tracebacks in the chaos tests)
CRASH_EXIT = 39


def scenario_key(tree: str, label: str, p: int) -> str:
    """The string identity of a scenario: ``"tree|label|p"``.

    ``label`` is what lands in ``ScenarioRecord.heuristic`` (the
    algorithm name, or ``name@capF``), so the key is exactly the resume
    key of the record.
    """
    return f"{tree}|{label}|{p}"


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Parameters
    ----------
    kind:
        one of :data:`KINDS`.
    scenario:
        optional ``"tree|label|p"`` key (see :func:`scenario_key`);
        ``None`` matches any scenario.
    index:
        optional position of the scenario in the run's dispatch stream
        (0-based over the scenarios actually executed, i.e. after
        resume skipping); ``None`` matches any position.
    attempts:
        attempt numbers (0-based) the fault fires on; the empty tuple
        fires on **every** attempt -- a poison scenario that exhausts
        its retries and is quarantined.
    seconds:
        sleep duration of ``slow`` faults.
    record:
        for ``truncate_write``: the 0-based ordinal of the checkpoint
        append (counted per process) that is cut short.
    keep_bytes:
        for ``truncate_write``: how many bytes of the line survive
        (default: half the line, newline never included).
    exit_code:
        process exit code of ``crash`` / ``truncate_write`` faults.
    """

    kind: str
    scenario: str | None = None
    index: int | None = None
    attempts: tuple[int, ...] = ()
    seconds: float = 0.0
    record: int | None = None
    keep_bytes: int | None = None
    exit_code: int = CRASH_EXIT

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))

    def matches(
        self,
        kind: str,
        scenario: str | None = None,
        index: int | None = None,
        attempt: int | None = None,
    ) -> bool:
        """Does this fault fire for the given scenario/attempt context?"""
        if self.kind != kind:
            return False
        if self.scenario is not None and self.scenario != scenario:
            return False
        if self.index is not None and self.index != index:
            return False
        if self.attempts and (attempt is None or attempt not in self.attempts):
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, JSON-serialisable list of faults."""

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "faults",
            tuple(f if isinstance(f, Fault) else Fault(**f) for f in self.faults),
        )

    def match(
        self,
        kind: str,
        scenario: str | None = None,
        index: int | None = None,
        attempt: int | None = None,
    ) -> Fault | None:
        """The first fault firing in this context, or None."""
        for f in self.faults:
            if f.matches(kind, scenario, index, attempt):
                return f
        return None

    def without(self, kind: str) -> "FaultPlan":
        """A copy of the plan with every fault of ``kind`` removed."""
        return FaultPlan(tuple(f for f in self.faults if f.kind != kind))

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [{k: v for k, v in asdict(f).items() if v not in (None, (), [])}
                        for f in self.faults]}
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        """Parse a plan from its JSON form (raises ``ValueError`` on a
        malformed document, listing what was wrong)."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("faults"), list):
            raise ValueError('fault plan must be {"faults": [...]}')
        faults = []
        for k, row in enumerate(doc["faults"]):
            if not isinstance(row, dict):
                raise ValueError(f"fault #{k} must be an object")
            try:
                if "attempts" in row:
                    row = {**row, "attempts": tuple(row["attempts"])}
                faults.append(Fault(**row))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"fault #{k} is invalid: {exc}") from None
        return FaultPlan(tuple(faults))


# ----------------------------------------------------------------------
# process-wide activation
# ----------------------------------------------------------------------

#: programmatically installed plan (takes precedence over the env var)
_INSTALLED: FaultPlan | None = None

#: cache of the last env-var parse, keyed by the raw variable value
_ENV_CACHE: tuple[str, FaultPlan] | None = None

#: per-process ordinal of JSONL checkpoint appends (truncate_write)
_WRITE_COUNT = 0


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` uninstalls).

    Also resets the per-process checkpoint-append counter, so
    ``truncate_write`` ordinals count from the moment of installation.
    """
    global _INSTALLED, _WRITE_COUNT
    _INSTALLED = plan
    _WRITE_COUNT = 0


def active_plan() -> FaultPlan | None:
    """The plan in force: the installed one, else ``REPRO_FAULT_PLAN``.

    The env form is parsed once per distinct value (so the per-call
    cost with no plan is one dict lookup). ``@path`` values load the
    plan from a JSON file.
    """
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    text = raw
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            text = fh.read()
    plan = FaultPlan.from_json(text)
    _ENV_CACHE = (raw, plan)
    return plan


# ----------------------------------------------------------------------
# runtime hooks (each a no-op without an active plan)
# ----------------------------------------------------------------------
def maybe_crash(scenario: str, index: int | None, attempt: int) -> None:
    """Hard-exit the process if a ``crash`` fault fires here."""
    plan = active_plan()
    if plan is None:
        return
    f = plan.match("crash", scenario, index, attempt)
    if f is not None:
        os._exit(f.exit_code)


def maybe_slow(scenario: str, index: int | None, attempt: int) -> None:
    """Sleep if a ``slow`` fault fires here (a wedged-worker stand-in)."""
    plan = active_plan()
    if plan is None:
        return
    f = plan.match("slow", scenario, index, attempt)
    if f is not None:
        time.sleep(f.seconds)


def compile_failure() -> bool:
    """True when a ``compile_failure`` fault is active (the C kernel
    then reports itself unavailable, whatever its real state)."""
    plan = active_plan()
    return plan is not None and plan.match("compile_failure") is not None


def maybe_truncate_write(fh, line: str) -> None:
    """Checkpoint-append seam: cut the ``record``-th line short and die.

    Counts JSONL record appends per process (from plan installation);
    when a ``truncate_write`` fault names the current ordinal, only
    ``keep_bytes`` of ``line`` (default: half, never the newline) are
    written before a hard exit -- exactly the residue a power loss
    mid-append leaves behind, which the campaign resume path
    (:meth:`repro.analysis.store.JsonlStore.recover`) must drop.
    """
    plan = active_plan()
    if plan is None:
        return
    global _WRITE_COUNT
    ordinal = _WRITE_COUNT
    _WRITE_COUNT += 1
    for f in plan.faults:
        if f.kind == "truncate_write" and f.record == ordinal:
            body = line.rstrip("\n")
            keep = len(body) // 2 if f.keep_bytes is None else f.keep_bytes
            fh.write(body[: max(0, min(keep, len(body)))])
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:  # pragma: no cover - fsync is best-effort here
                pass
            os._exit(f.exit_code)
