"""Job specs: canonical form, content keys, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.payload import (
    SpecError,
    canonical_bytes,
    canonical_spec,
    job_key,
    spec_from_dataset,
    spec_from_instances,
    to_campaign,
    to_instances,
)
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree


def tiny_spec(**run):
    return {
        "trees": [
            {
                "name": "t0",
                "parent": [-1, 0, 0],
                "w": [1.0, 2.0, 3.0],
                "f": [0.0, 1.0, 1.0],
                "sizes": [1.0, 1.0, 1.0],
            }
        ],
        "campaign": {"algorithms": ["ParSubtrees"], "processor_counts": [2]},
        "run": run,
    }


class TestCanonical:
    def test_defaults_filled_and_stable(self):
        c = canonical_spec(tiny_spec())
        assert c["campaign"]["cap_factors"] == []
        assert "backend" not in c["campaign"]
        assert c["run"] == {"retries": 2, "timeout": None, "backoff": 0.25}
        assert canonical_bytes(tiny_spec()) == canonical_bytes(c)

    def test_key_ignores_representation_not_content(self):
        a = tiny_spec()
        b = {
            "campaign": {"processor_counts": [2.0], "algorithms": ["ParSubtrees"]},
            "trees": [
                {
                    "sizes": [1, 1, 1],
                    "name": "t0",
                    "parent": [-1.0, 0, 0],
                    "w": [1, 2, 3],
                    "f": [0, 1, 1],
                }
            ],
        }
        assert job_key(a) == job_key(b)  # order/int-float normalised
        c = tiny_spec()
        c["campaign"]["processor_counts"] = [4]
        assert job_key(a) != job_key(c)  # different work, different key

    def test_run_config_changes_the_key(self):
        # retries are part of the work description: a retried POST with
        # different policy is a different job, not a dedupe hit
        assert job_key(tiny_spec()) != job_key(tiny_spec(retries=5))


class TestValidation:
    @pytest.mark.parametrize(
        "mangle, msg",
        [
            (lambda s: s.pop("trees"), "trees"),
            (lambda s: s["trees"][0].pop("w"), "missing"),
            (lambda s: s["trees"][0]["w"].append(9.0), "entries"),
            (lambda s: s["trees"][0].update(parent=[0, 0, 1]), "valid task tree"),
            (lambda s: s["campaign"].update(algorithms=["NoSuchAlgo"]),
             "does not expand"),
            (lambda s: s["campaign"].update(processor_counts=[0]), "positive"),
            (lambda s: s["campaign"].update(backend="c"), "backend was removed"),
            (lambda s: s["campaign"].update(backend=None), "picks the sweep itself"),
            (lambda s: s.update(run={"retries": -1}), "retries"),
            (lambda s: s.update(extra=1), "unknown"),
            # non-finite weights: TaskTree names the column
            (lambda s: s["trees"][0].update(w=[1.0, float("nan"), 1.0]),
             "valid task tree: weights must be finite, w is not"),
            # scalars are checked, not coerced
            (lambda s: s["campaign"].update(validate="false"), "validate must be true or false"),
            (lambda s: s.update(run={"supervise": True}), "run.supervise was removed"),
            (lambda s: s.update(run={"supervise": False}), "supervised worker pool"),
            (lambda s: s["campaign"].update(processor_counts=[2.7]), "not an integer"),
            (lambda s: s["campaign"].update(processor_counts=[True]), "not an integer"),
            (lambda s: s.update(run={"retries": 2.9}), "not an integer"),
            (lambda s: s["trees"][0].update(parent=[-1, 0.7, 0]), "not an integer"),
            (lambda s: s.update(run={"timeout": -1}), "timeout must be null or > 0"),
            (lambda s: s.update(run={"timeout": 0}), "timeout must be null or > 0"),
            (lambda s: s.update(run={"backoff": -0.5}), "backoff must be >= 0"),
            (lambda s: s["campaign"].update(cap_factors=[0]), "finite and positive"),
            (lambda s: s["campaign"].update(cap_factors=[float("inf")]), "finite and positive"),
            (lambda s: s["campaign"].update(cap_factors=[float("nan")]), "finite and positive"),
            (lambda s: s["campaign"].update(cap_factors=[-1.5]), "finite and positive"),
        ],
    )
    def test_bad_specs_fail_with_context(self, mangle, msg):
        spec = tiny_spec()
        mangle(spec)
        with pytest.raises(SpecError, match=msg):
            canonical_spec(spec)

    def test_duplicate_tree_names_rejected(self):
        spec = tiny_spec()
        spec["trees"].append(dict(spec["trees"][0]))
        with pytest.raises(SpecError, match="duplicate"):
            canonical_spec(spec)


class TestRoundTrip:
    def test_instances_round_trip_bitwise(self):
        rng = np.random.default_rng(3)
        insts = [
            TreeInstance(
                name=f"t{k}",
                tree=random_weighted_tree(30, rng),
                matrix_name="synthetic",
                ordering="none",
                amalgamation=1,
            )
            for k in range(2)
        ]
        spec = spec_from_instances(
            insts, algorithms=["ParSubtrees"], processor_counts=[2, 4]
        )
        back = to_instances(spec)
        assert [b.name for b in back] == [i.name for i in insts]
        for orig, got in zip(insts, back):
            for col in ("parent", "w", "f", "sizes"):
                assert np.array_equal(
                    getattr(orig.tree, col), getattr(got.tree, col)
                )

    def test_campaign_round_trip(self):
        spec = canonical_spec(tiny_spec())
        camp = to_campaign(spec)
        assert camp.algorithms == ("ParSubtrees",)
        assert camp.processor_counts == (2,)
        assert camp.scenarios_for("t0")

    def test_dataset_spec_is_canonical(self):
        spec = spec_from_dataset(scale="tiny", limit=1)
        assert canonical_spec(spec) == spec
        assert len(spec["trees"]) == 1

    def test_specs_over_one_tree_share_its_columns(self):
        """Many jobs over one tree hold one copy of its columns: the
        lists are built once per live tree and canonicalising an already
        canonical spec copies nothing."""
        import gc

        from repro.service import payload

        tree = random_weighted_tree(30, np.random.default_rng(4))
        specs = [
            spec_from_instances(
                [TreeInstance(name=f"job{k}", tree=tree, matrix_name="synthetic",
                              ordering="none", amalgamation=1)],
                algorithms=["ParSubtrees"], processor_counts=[2],
            )
            for k in range(2)
        ]
        a, b = (spec["trees"][0] for spec in specs)
        for col in ("parent", "w", "f", "sizes"):
            assert a[col] is b[col]
            assert a[col] == getattr(tree, col).tolist()
        assert canonical_spec(specs[0])["trees"][0]["w"] is a["w"]
        key = id(tree)
        del tree, specs, a, b
        gc.collect()
        assert key not in payload._TREE_LISTS


class TestRemovedBackendKey:
    """``spec.campaign.backend`` is gone: the engine picks the sweep."""

    def test_posted_spec_with_backend_is_a_400(self, tmp_path):
        from repro.service.server import SchedulerService

        spec = tiny_spec()
        spec["campaign"]["backend"] = "python"
        service = SchedulerService(str(tmp_path / "svc"))
        status, body = service.submit(spec)
        assert status == 400
        assert "spec.campaign.backend was removed" in body["error"]
        assert service.jobs.ids() == []  # nothing journaled

    def test_old_journal_with_backend_key_resumes(self, tmp_path):
        """A job journaled while the keys existed (its spec.json holds
        ``"backend": null`` and ``"supervise": false``) is recovered and
        resumed on the supervised pool from its checkpoint to the same
        bytes as a fresh in-process campaign."""
        import json
        import os
        import time

        from repro.analysis.campaign import run_campaign
        from repro.service.server import SchedulerService

        spec = canonical_spec(tiny_spec())
        spec["campaign"]["processor_counts"] = [2, 4, 8]
        ref = tmp_path / "ref.jsonl"
        run_campaign(to_instances(spec), to_campaign(spec), checkpoint=str(ref))
        lines = ref.read_bytes().splitlines(keepends=True)

        old = json.loads(json.dumps(spec))
        old["campaign"]["backend"] = None  # the old canonical form
        old["run"]["supervise"] = False
        job_dir = tmp_path / "svc" / "jobs" / "0123456789abcdef01234567"
        job_dir.mkdir(parents=True)
        (job_dir / "spec.json").write_text(
            json.dumps(old, sort_keys=True, separators=(",", ":"))
        )
        now = time.time()
        (job_dir / "state.json").write_text(json.dumps(
            {"state": "running", "created": now, "updated": now,
             "error": "", "detail": {}}
        ))
        (job_dir / "records.jsonl").write_bytes(lines[0])  # interrupted

        service = SchedulerService(str(tmp_path / "svc"))
        try:
            assert service.start() == [job_dir.name]
            for _ in range(600):
                if service.status(job_dir.name)[1]["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
        finally:
            service.drain()
        assert service.status(job_dir.name)[1]["state"] == "done"
        assert (job_dir / "records.jsonl").read_bytes() == ref.read_bytes()
        assert os.path.getsize(job_dir / "records.jsonl") > len(lines[0])


class TestRemovedSuperviseKey:
    """``spec.run.supervise`` is gone: every job runs on the pool."""

    @pytest.mark.parametrize("value", [True, False])
    def test_posted_spec_with_supervise_is_a_400(self, tmp_path, value):
        from repro.service.server import SchedulerService

        service = SchedulerService(str(tmp_path / "svc"))
        status, body = service.submit(tiny_spec(supervise=value))
        assert status == 400
        assert "spec.run.supervise was removed" in body["error"]
        assert service.jobs.ids() == []  # nothing journaled
