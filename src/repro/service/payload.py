"""Job payloads: the wire form of a campaign, and its content key.

A job spec is one JSON object::

    {
      "trees": [
        {"name": "t0", "parent": [-1, 0, 0], "w": [...],
         "f": [...], "sizes": [...]},
        ...
      ],
      "campaign": {
        "algorithms": ["ParSubtrees", "ParDeepestFirst"],
        "processor_counts": [2, 4],        # default: the paper's five
        "cap_factors": [],                  # optional
        "validate": false
      },
      "run": {                              # all optional
        "retries": 2,
        "timeout": null,                    # per-scenario seconds
        "backoff": 0.25
      }
    }

Every job runs on the service's supervised worker pool; ``run``
holds that pool's per-scenario retry policy. Trees travel inline as
plain lists -- the service executes exactly what was posted, nothing
is resolved against server-side state. The spec is canonicalized
(defaults filled, keys sorted, no whitespace) before hashing, so the
**job key is a pure function of the work**:
re-posting the same grid -- a client retry after a lost response, a
crashed submitter rerunning its script -- lands on the same job
directory instead of a duplicate execution.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import weakref
from typing import Any, Iterable

from repro.analysis.campaign import Campaign
from repro.core.tree import TaskTree
from repro.workloads.dataset import PROCESSOR_COUNTS, TreeInstance

__all__ = [
    "SpecError",
    "canonical_spec",
    "job_key",
    "run_config",
    "spec_from_dataset",
    "spec_from_instances",
    "to_campaign",
    "to_instances",
]


class SpecError(ValueError):
    """A malformed job spec (the server answers 400 with the message)."""


_RUN_DEFAULTS: dict[str, Any] = {
    "retries": 2,
    "timeout": None,
    "backoff": 0.25,
}


def _fail(msg: str) -> None:
    raise SpecError(msg)


def canonical_spec(spec: Any) -> dict:
    """Validate ``spec`` and return its canonical form.

    Canonical means: every default filled in, every number normalised
    (ints for node indices and processor counts, floats for weights),
    unknown keys rejected -- so two specs describing the same work
    always serialize to the same bytes. Values are checked, not
    coerced: flags must be JSON booleans, integer fields integral
    numbers (``2.0`` reads as 2; ``2.7`` and ``true`` are errors),
    ``timeout`` null or positive, ``backoff`` non-negative, and cap
    factors finite and positive (checked by :class:`Campaign`).
    """
    if not isinstance(spec, dict):
        _fail("spec must be a JSON object")
    unknown = set(spec) - {"trees", "campaign", "run"}
    if unknown:
        _fail(f"unknown spec key(s): {sorted(unknown)}")

    trees = spec.get("trees")
    if not isinstance(trees, list) or not trees:
        _fail("spec.trees must be a non-empty list")
    seen: set[str] = set()
    canon_trees = []
    for k, t in enumerate(trees):
        if not isinstance(t, dict):
            _fail(f"spec.trees[{k}] must be an object")
        missing = {"name", "parent", "w", "f", "sizes"} - set(t)
        if missing:
            _fail(f"spec.trees[{k}] is missing {sorted(missing)}")
        unknown = set(t) - {"name", "parent", "w", "f", "sizes"}
        if unknown:
            _fail(f"spec.trees[{k}] has unknown key(s): {sorted(unknown)}")
        name = t["name"]
        if not isinstance(name, str) or not name:
            _fail(f"spec.trees[{k}].name must be a non-empty string")
        if name in seen:
            _fail(f"duplicate tree name {name!r}")
        seen.add(name)
        try:
            parent = _column(t["parent"], int)
            cols = {key: _column(t[key], float) for key in ("w", "f", "sizes")}
        except (TypeError, ValueError) as exc:
            _fail(f"spec.trees[{k}]: {exc}")
        n = len(parent)
        for key, col in cols.items():
            if len(col) != n:
                _fail(
                    f"spec.trees[{k}].{key} has {len(col)} entries for "
                    f"{n} node(s)"
                )
        try:  # full structural validation (single root, acyclic, ...)
            TaskTree(parent, cols["w"], cols["f"], cols["sizes"])
        except Exception as exc:
            _fail(f"spec.trees[{k}] is not a valid task tree: {exc}")
        canon_trees.append(
            {"name": name, "parent": parent, **{k2: cols[k2] for k2 in ("w", "f", "sizes")}}
        )

    camp = spec.get("campaign")
    if not isinstance(camp, dict):
        _fail("spec.campaign must be an object")
    if "backend" in camp:
        _fail(
            "spec.campaign.backend was removed: the engine picks the sweep "
            "itself (the C kernel when it builds, else the reference loop)"
        )
    unknown = set(camp) - {"algorithms", "processor_counts", "cap_factors", "validate"}
    if unknown:
        _fail(f"unknown spec.campaign key(s): {sorted(unknown)}")
    algorithms = camp.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms or not all(
        isinstance(a, str) for a in algorithms
    ):
        _fail("spec.campaign.algorithms must be a non-empty list of names")
    try:
        procs = [_integer(p) for p in camp.get("processor_counts", PROCESSOR_COUNTS)]
        caps = [float(c) for c in camp.get("cap_factors", ())]
    except (TypeError, ValueError) as exc:
        _fail(f"spec.campaign: {exc}")
    if not procs or any(p < 1 for p in procs):
        _fail("spec.campaign.processor_counts must be positive integers")
    validate = _flag(camp, "validate", False, "spec.campaign")
    canon_campaign = {
        "algorithms": list(algorithms),
        "processor_counts": procs,
        "cap_factors": caps,
        "validate": validate,
    }
    try:  # expand one grid row: unknown algorithm names fail here
        to_campaign({"campaign": canon_campaign}).scenarios_for("probe")
    except SpecError:
        raise
    except Exception as exc:
        _fail(f"spec.campaign does not expand: {exc}")

    run = spec.get("run", {})
    if not isinstance(run, dict):
        _fail("spec.run must be an object")
    if "supervise" in run:
        _fail(
            "spec.run.supervise was removed: every job runs on the "
            "service's supervised worker pool"
        )
    unknown = set(run) - set(_RUN_DEFAULTS)
    if unknown:
        _fail(f"unknown spec.run key(s): {sorted(unknown)}")
    canon_run = dict(_RUN_DEFAULTS)
    try:
        canon_run["retries"] = _integer(run.get("retries", 2))
        canon_run["backoff"] = float(run.get("backoff", 0.25))
        timeout = run.get("timeout")
        canon_run["timeout"] = None if timeout is None else float(timeout)
    except (TypeError, ValueError) as exc:
        _fail(f"spec.run: {exc}")
    if canon_run["retries"] < 0:
        _fail("spec.run.retries must be >= 0")
    if not canon_run["backoff"] >= 0:
        _fail("spec.run.backoff must be >= 0")
    if canon_run["timeout"] is not None and not canon_run["timeout"] > 0:
        _fail("spec.run.timeout must be null or > 0 seconds")

    return {"trees": canon_trees, "campaign": canon_campaign, "run": canon_run}


def canonical_bytes(spec: Any) -> bytes:
    """The canonical JSON encoding of a (validated) spec."""
    return json.dumps(
        canonical_spec(spec), sort_keys=True, separators=(",", ":")
    ).encode()


def content_key(data: bytes) -> str:
    """The job key of canonical bytes (see :func:`canonical_bytes`)."""
    return hashlib.sha256(data).hexdigest()[:24]


def job_key(spec: Any) -> str:
    """The content hash naming a job: identical work, identical key."""
    return content_key(canonical_bytes(spec))


# ----------------------------------------------------------------------
# canonical spec -> runtime objects
# ----------------------------------------------------------------------
def to_instances(spec: dict) -> list[TreeInstance]:
    return [
        TreeInstance(
            name=t["name"],
            tree=TaskTree(t["parent"], t["w"], t["f"], t["sizes"]),
            matrix_name="service",
            ordering="none",
            amalgamation=1,
        )
        for t in spec["trees"]
    ]


def to_campaign(spec: dict) -> Campaign:
    camp = spec["campaign"]
    return Campaign(
        algorithms=tuple(camp["algorithms"]),
        processor_counts=tuple(camp["processor_counts"]),
        cap_factors=tuple(camp.get("cap_factors", ())),
        validate=bool(camp.get("validate", False)),
    )


def run_config(spec: dict) -> dict:
    cfg = dict(_RUN_DEFAULTS)
    cfg.update(spec.get("run", {}))
    return cfg


def _integer(x: Any) -> int:
    """``x`` as an int: an integral number, never a boolean."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    """``section[key]`` (default ``default``), which must be a boolean."""
    value = section.get(key, default)
    if type(value) is not bool:
        _fail(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _column(values, kind: type) -> list:
    """``values`` as a list of ``kind`` (ints through :func:`_integer`).
    A list that already is one is kept as it is rather than copied
    (specs are read-only data)."""
    if type(values) is list and set(map(type, values)) <= {kind}:
        return values
    return [_integer(x) if kind is int else kind(x) for x in values]


# ----------------------------------------------------------------------
# spec builders (client side)
# ----------------------------------------------------------------------

#: the columns of every live tree inlined so far, as JSON-ready lists,
#: by ``id(tree)`` (a TaskTree is not hashable): a client sending many
#: jobs over the same trees then holds one copy of each tree, not one
#: per job. An entry goes when its tree is garbage-collected.
_TREE_LISTS: dict[int, dict] = {}


def _tree_lists(tree: TaskTree) -> dict:
    lists = _TREE_LISTS.get(id(tree))
    if lists is None:
        lists = {key: getattr(tree, key).tolist() for key in ("parent", "w", "f", "sizes")}
        _TREE_LISTS[id(tree)] = lists
        weakref.finalize(tree, _TREE_LISTS.pop, id(tree), None)
    return lists


def spec_from_instances(
    instances: Iterable[TreeInstance],
    *,
    algorithms: Iterable[str],
    processor_counts: Iterable[int] = PROCESSOR_COUNTS,
    cap_factors: Iterable[float] = (),
    validate: bool = False,
    **run: Any,
) -> dict:
    """Inline ``instances`` into a canonical job spec.

    Specs built from the same :class:`TaskTree` share its column lists;
    treat a spec as read-only.
    """
    spec = {
        "trees": [{"name": inst.name, **_tree_lists(inst.tree)} for inst in instances],
        "campaign": {
            "algorithms": list(algorithms),
            "processor_counts": list(processor_counts),
            "cap_factors": list(cap_factors),
            "validate": validate,
        },
        "run": run,
    }
    return canonical_spec(spec)


def spec_from_dataset(
    scale: str = "tiny",
    *,
    algorithms: Iterable[str] = ("ParSubtrees", "ParDeepestFirst"),
    processor_counts: Iterable[int] = (2, 4),
    limit: int | None = None,
    seed: int = 2013,
    **kwargs: Any,
) -> dict:
    """A ready-made demo spec over the synthetic dataset (used by the
    quickstart and the CI smoke drill; the same ``build_dataset`` call
    also backs ``repro campaign``, so records are directly comparable)."""
    from repro.workloads.dataset import build_dataset

    instances = build_dataset(scale=scale, seed=seed)
    if limit is not None:
        instances = instances[:limit]
    return spec_from_instances(
        instances,
        algorithms=algorithms,
        processor_counts=processor_counts,
        **kwargs,
    )
