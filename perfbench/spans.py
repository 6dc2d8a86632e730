"""Outside-in tracing: spans recorded around calls into the program.

The benchmark never edits the program. :class:`Patches` swaps public
functions of each layer for wrappers that open a span, call the
original and close the span, and puts the originals back on
:meth:`Patches.restore`. Spans stay in memory, each with its parent on
the same thread, and are written out when the benchmark ends.

A span's *self time* is its duration minus the time covered by its
direct children, so nested layers (``optimal`` inside ``subtrees``) are
never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

__all__ = ["Patches", "Span", "Tracer", "spanned"]


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Thread-aware span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            next(self._ids),
            parent.sid if parent is not None else None,
            name,
            threading.get_ident(),
            time.perf_counter(),
            attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += sp.duration
            with self._lock:
                self.spans.append(sp)

    def count(self, name: str, k: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + k

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.samples.setdefault(name, []).append(value)

    # -- summaries ------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        spans = sorted(self.spans, key=lambda s: s.start)
        t0 = spans[0].start if spans else 0.0
        with open(path, "w") as fh:
            for s in spans:
                row = asdict(s)
                row["start"] -= t0
                row["end"] -= t0
                row["self_s"] = s.self_s
                fh.write(json.dumps(row, default=str) + "\n")


class Patches:
    """Attribute swaps that can be undone, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(
    tracer: Tracer,
    name: str,
    before: Callable[..., dict] | None = None,
    after: Callable[..., None] | None = None,
) -> Callable[[Any], Any]:
    """A ``Patches.wrap`` factory: run the original inside a span.

    ``before(*args, **kwargs)`` returns the span's attributes (a
    ``"name"`` key renames the span); ``after(span, result, *args,
    **kwargs)`` annotates it once the call returned.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            label = attrs.pop("name", name)
            with tracer.span(label, **attrs) as sp:
                out = fn(*args, **kwargs)
                if after is not None and sp is not None:
                    after(sp, out, *args, **kwargs)
            return out

        return wrapper

    return make
