"""Central algorithm registry: one catalogue of every scheduler.

This module is the single source of truth for the algorithm catalogue
and the one front end of every scheduler: the CLI, campaigns, the
service and the benchmarks all run an algorithm as
``registry.run(name, tree, p)``. The paper's four heuristics
(``parallel/heuristics.py::HEURISTICS``) are a view over it.

Every entry is an :class:`Algorithm` with metadata (name, kind, tunable
parameters with defaults, one-line doc) and a uniform ``run(tree, p)``
entry point returning a :class:`~repro.core.schedule.Schedule`:

* ``kind="parallel"`` algorithms always receive the
  :class:`~repro.core.prepared.PreparedTree`: an algorithm with a
  ``sweep_spec`` runs the :class:`~repro.core.engine.SchedulerEngine`
  built from its spec, any other is called as
  ``fn(prepared, p, **params)``;
* ``kind="sequential"`` algorithms are traversals ``fn(tree, **params)``
  of the bare :class:`~repro.core.tree.TaskTree`, returning a
  :class:`~repro.sequential.traversal.TraversalResult` that is wrapped
  into the back-to-back one-processor schedule.

The registry is populated lazily on first access so that importing
:mod:`repro.registry` never drags in the whole package (and so that the
heuristic modules may themselves import this module without cycles).

>>> from repro import registry
>>> sorted(registry.names("sequential"))
['liu_optimal_traversal', 'natural_postorder', 'optimal_postorder']
>>> registry.run("ParDeepestFirst", tree, p=4)    # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.prepared import PreparedTree, as_prepared, tree_of
from repro.core.schedule import Schedule, processor_count
from repro.core.tree import TaskTree

__all__ = [
    "Algorithm",
    "register",
    "get",
    "names",
    "algorithms",
    "run",
]


@dataclass(frozen=True)
class Algorithm:
    """One registered scheduling algorithm and its metadata.

    Attributes
    ----------
    name:
        registry key (the paper's name for parallel heuristics, the
        function name for sequential traversals).
    kind:
        ``"parallel"`` (``fn(prepared, p, **params)`` -> Schedule, or a
        ``sweep_spec``) or ``"sequential"`` (``fn(tree, **params)`` ->
        TraversalResult).
    fn:
        the underlying callable. A parallel algorithm has exactly one
        of ``fn`` and ``sweep_spec``.
    params:
        tunable keyword parameters with their defaults; ``run`` accepts
        overrides for exactly these keys.
    doc:
        one-line description shown by ``repro algos``.
    sweep_spec:
        optional builder ``(prepared, p, **params) ->``
        :class:`~repro.core.engine.BatchScenario` describing a parallel
        algorithm as one engine run (every engine-backed scheduler has
        one): :meth:`run` sweeps it alone, campaign grids batch it into
        one megabatch kernel call through :meth:`batch_spec`.
        Algorithms without a spec (the subtree-splitting family,
        sequential traversals) run their ``fn``.
    """

    name: str
    kind: str
    fn: Callable[..., Any] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    doc: str = ""
    sweep_spec: Callable[..., Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "parallel"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.fn is None and (self.kind == "sequential" or self.sweep_spec is None):
            raise ValueError(f"{self.name} needs an fn or a sweep_spec")
        if self.fn is not None and self.sweep_spec is not None:
            # run() sweeps the spec and would never call fn
            raise ValueError(f"{self.name} has both an fn and a sweep_spec")

    def run(
        self, tree: TaskTree | PreparedTree, p: int = 1, **overrides: Any
    ) -> Schedule:
        """Run the algorithm on ``(tree, p)`` and return its schedule.

        Sequential traversals execute back-to-back on processor 0 of the
        ``p``-processor platform. ``p`` must be a positive integer
        (:func:`~repro.core.schedule.processor_count`); ``overrides`` must
        be a subset of the registered ``params``.
        """
        p = processor_count(p)
        merged = self._merged(overrides)
        if self.kind == "sequential":
            result = self.fn(tree_of(tree), **merged)
            return Schedule.sequential(tree_of(tree), result.order, p=p)
        prepared = as_prepared(tree)
        if self.sweep_spec is not None:
            return self.sweep_spec(prepared, p, **merged).engine(prepared).run()
        return self.fn(prepared, p, **merged)

    def batch_spec(self, tree: TaskTree | PreparedTree, p: int = 1, **overrides: Any):
        """The algorithm as one megabatch scenario, or None.

        Returns the :class:`~repro.core.engine.BatchScenario`
        equivalent to ``run(tree, p, **overrides)`` -- same rank
        permutation and cap, so sweeping the
        scenario through :func:`~repro.core.engine.sweep_batch` is
        bit-identical to the unbatched call. Algorithms without a
        registered ``sweep_spec`` return None (callers fall back to
        :meth:`run`).
        """
        p = processor_count(p)
        if self.sweep_spec is None:
            return None
        return self.sweep_spec(as_prepared(tree), p, **self._merged(overrides))

    def _merged(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """The registered params with ``overrides`` applied (which must
        name registered params only)."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise TypeError(
                f"{self.name} accepts params {sorted(self.params)}, "
                f"got unknown {sorted(unknown)}"
            )
        return {**self.params, **overrides}


_REGISTRY: dict[str, Algorithm] = {}
_populated = False


def register(algorithm: Algorithm) -> Algorithm:
    """Add an algorithm to the registry (names must be unique)."""
    if algorithm.name in _REGISTRY:
        raise ValueError(f"algorithm {algorithm.name!r} already registered")
    _REGISTRY[algorithm.name] = algorithm
    return algorithm


def _memory_aware_subtrees(
    tree: TaskTree | PreparedTree, p: int, cap_factor: float = 2.0
):
    """ParSubtrees constrained to ``cap_factor`` x the sequential peak."""
    from repro.parallel.memory_aware_subtrees import par_subtrees_memory_aware

    prepared = as_prepared(tree)
    return par_subtrees_memory_aware(
        prepared, p, cap_factor * prepared.optimal().peak_memory
    )


def _populate() -> None:
    """Register the built-in catalogue (idempotent, import-cycle safe)."""
    global _populated
    if _populated:
        return
    _populated = True
    from repro.core.engine import BatchScenario
    from repro.parallel.par_subtrees import par_subtrees, par_subtrees_optim
    from repro.parallel.memory_bounded import memory_bounded_spec
    from repro.parallel.par_inner_first import par_inner_first_rank
    from repro.parallel.par_deepest_first import par_deepest_first_rank
    from repro.parallel.variants import (
        par_hop_deepest_first_rank,
        par_inner_first_naive_rank,
    )
    from repro.sequential.postorder import natural_postorder, optimal_postorder
    from repro.sequential.liu import liu_optimal_traversal

    for name, fn, doc in (
        ("ParSubtrees", par_subtrees, "split into subtrees, one per processor (Section 5.1)"),
        ("ParSubtreesOptim", par_subtrees_optim, "ParSubtrees with work-packing optimisation"),
    ):
        register(Algorithm(name=name, kind="parallel", fn=fn, doc=doc))

    def _rank_spec(rank_fn):
        """Sweep spec of an uncapped list heuristic: its rank, cached on
        the prepared bundle under the heuristic's priority-spec key."""

        def spec(tree: PreparedTree, p: int) -> BatchScenario:
            return BatchScenario(rank=rank_fn(tree), p=p)

        return spec

    # The list schedulers all run on the unified engine and are
    # described by their megabatch sweep spec alone: run() sweeps it,
    # and campaign grids collapse to one batched kernel call per tree
    # (see repro.core.engine.sweep_batch).
    for name, rank_fn, doc in (
        ("ParInnerFirst", par_inner_first_rank,
         "parallel postorder: inner nodes first (Section 5.2)"),
        ("ParDeepestFirst", par_deepest_first_rank,
         "critical-path list scheduling (Section 5.3)"),
        ("ParInnerFirst/naiveO", par_inner_first_naive_rank,
         "ablation: naive postorder as O"),
        ("ParDeepestFirst/hops", par_hop_deepest_first_rank,
         "ablation: hop-count depth"),
    ):
        register(
            Algorithm(name=name, kind="parallel", doc=doc, sweep_spec=_rank_spec(rank_fn))
        )
    register(
        Algorithm(
            name="MemoryBounded",
            kind="parallel",
            params={"cap_factor": 2.0},
            doc="event scheduler under a peak-memory cap (future-work extension)",
            sweep_spec=memory_bounded_spec,
        )
    )
    register(
        Algorithm(
            name="MemoryAwareSubtrees",
            kind="parallel",
            fn=_memory_aware_subtrees,
            params={"cap_factor": 2.0},
            doc="ParSubtrees restricted to a memory budget",
        )
    )
    for name, fn, doc in (
        ("optimal_postorder", optimal_postorder, "Liu 1986: memory-optimal postorder"),
        ("liu_optimal_traversal", liu_optimal_traversal, "Liu 1987: exact optimal traversal"),
        ("natural_postorder", natural_postorder, "index-order postorder baseline"),
    ):
        register(Algorithm(name=name, kind="sequential", fn=fn, doc=doc))


def get(name: str) -> Algorithm:
    """Look up one algorithm; raises ``KeyError`` listing known names."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def names(kind: str | None = None) -> list[str]:
    """All registered names (insertion order), optionally one kind only."""
    _populate()
    return [a.name for a in _REGISTRY.values() if kind is None or a.kind == kind]


def algorithms(kind: str | None = None) -> list[Algorithm]:
    """All registered algorithms, optionally filtered by kind."""
    _populate()
    return [a for a in _REGISTRY.values() if kind is None or a.kind == kind]


def run(name: str, tree: TaskTree | PreparedTree, p: int = 1, **params: Any) -> Schedule:
    """Run registry algorithm ``name`` on ``(tree, p)``."""
    return get(name).run(tree, p, **params)

