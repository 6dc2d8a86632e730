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
        assert c["campaign"]["backend"] is None
        assert c["run"] == {
            "supervise": True, "retries": 2, "timeout": None, "backoff": 0.25,
        }
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
            (lambda s: s["campaign"].update(backend="fortran"), "backend"),
            (lambda s: s["campaign"].update(backend="numba"), "c|python"),
            (lambda s: s.update(run={"retries": -1}), "retries"),
            (lambda s: s.update(extra=1), "unknown"),
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
