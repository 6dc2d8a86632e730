"""Tests for the declarative campaign runner and resumable checkpoints."""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.analysis.campaign import (
    Campaign,
    Scenario,
    recover_checkpoint,
    run_campaign,
)
from repro.analysis.experiments import (
    FailedRecord,
    ScenarioRecord,
    load_records,
    run_experiments,
    save_records,
)
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree


@pytest.fixture
def instances(rng):
    return [
        TreeInstance(
            name=f"t{k}",
            tree=random_weighted_tree(25 + 10 * k, rng),
            matrix_name="synthetic",
            ordering="none",
            amalgamation=1,
        )
        for k in range(3)
    ]


@pytest.fixture
def campaign():
    return Campaign(
        algorithms=("ParDeepestFirst", "ParSubtrees", "MemoryBounded"),
        processor_counts=(2, 4),
        cap_factors=(1.5, 2.0),
        backend="python",
    )


class TestGridExpansion:
    def test_scenario_counts_and_order(self, campaign):
        scenarios = campaign.scenarios_for("tree")
        # per p: ParDeepestFirst, ParSubtrees, MemoryBounded x 2 caps
        assert len(scenarios) == 2 * (1 + 1 + 2)
        assert [sc.p for sc in scenarios] == [2, 2, 2, 2, 4, 4, 4, 4]
        assert [sc.label for sc in scenarios][:4] == [
            "ParDeepestFirst",
            "ParSubtrees",
            "MemoryBounded@cap1.5",
            "MemoryBounded@cap2",
        ]

    def test_caps_only_for_cap_algorithms(self, campaign):
        scenarios = campaign.scenarios_for("tree")
        for sc in scenarios:
            params = dict(sc.params)
            if sc.algorithm == "MemoryBounded":
                assert params["cap_factor"] in (1.5, 2.0)
            else:
                assert "cap_factor" not in params

    def test_backend_only_for_engine_algorithms(self, campaign):
        scenarios = campaign.scenarios_for("tree")
        for sc in scenarios:
            params = dict(sc.params)
            if sc.algorithm == "ParSubtrees":
                assert "backend" not in params
            else:
                assert params["backend"] == "python"

    def test_unknown_algorithm_fails_fast(self):
        camp = Campaign(algorithms=("NoSuchAlgorithm",), processor_counts=(2,))
        with pytest.raises(KeyError, match="NoSuchAlgorithm"):
            camp.scenarios_for("tree")

    def test_scenario_key(self):
        sc = Scenario(tree="t", algorithm="A", p=4, label="A@cap2")
        assert sc.key() == ("t", "A@cap2", 4)


class TestRunCampaign:
    def test_matches_run_experiments_for_plain_grid(self, instances):
        camp = Campaign(
            algorithms=("ParDeepestFirst", "ParInnerFirst"), processor_counts=(2, 4)
        )
        records = run_campaign(instances, camp)
        legacy = run_experiments(
            instances, (2, 4), heuristics=("ParDeepestFirst", "ParInnerFirst")
        )
        assert records == legacy

    def test_cap_grid_records(self, instances, campaign):
        records = run_campaign(instances, campaign)
        assert len(records) == 3 * len(campaign.scenarios_for("-"))
        capped = [r for r in records if r.heuristic.startswith("MemoryBounded@")]
        assert capped, "cap grid missing"
        for r in capped:
            factor = float(r.heuristic.split("@cap")[1])
            # strict mode never exceeds the cap
            assert r.memory <= factor * r.memory_lb + 1e-9

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_split_single_tree_byte_identical(
        self, instances, campaign, tmp_path, workers
    ):
        """One tree, more workers than trees: the group is split into
        contiguous units across the workers, same records, same bytes."""
        serial = run_campaign(instances[:1], campaign)
        split = run_campaign(instances[:1], campaign, workers=workers)
        assert split == serial
        a, b = str(tmp_path / "serial.json"), str(tmp_path / "split.json")
        save_records(serial, a)
        save_records(split, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_one_worker_runs_in_process(self, instances, campaign, monkeypatch):
        import repro.analysis.supervisor as supervisor_mod

        def boom(*args, **kwargs):
            raise AssertionError("workers=1 must not start a worker pool")

        ref = run_campaign(instances, campaign, workers=3)
        monkeypatch.setattr(supervisor_mod.SupervisorPool, "__init__", boom)
        assert run_campaign(instances, campaign, workers=1) == ref

    def test_workers_quarantine_infeasible_cap_in_stream_position(self, instances):
        """workers > 1 is supervised: a deterministic scenario error
        becomes a FailedRecord at that scenario's stream position."""
        camp = Campaign(
            algorithms=("ParDeepestFirst", "MemoryBounded"),
            processor_counts=(2, 4),
            cap_factors=(0.05, 2.0),  # 0.05: far below the sequential optimum
        )
        records = run_campaign(instances, camp, workers=2)
        expected = [
            sc.key() for inst in instances for sc in camp.scenarios_for(inst.name)
        ]
        assert [(r.tree, r.heuristic, r.p) for r in records] == expected
        for r in records:
            infeasible = r.heuristic == "MemoryBounded@cap0.05"
            assert isinstance(r, FailedRecord) == infeasible
            if infeasible:
                assert "MemoryCapError" in r.error and r.attempts == 1

    def test_checkpoint_requires_jsonl(self, instances, campaign, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            run_campaign(
                instances, campaign, checkpoint=str(tmp_path / "records.json")
            )

    def test_checkpoint_stream_matches_records(self, instances, campaign, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        records = run_campaign(instances, campaign, checkpoint=path, workers=2)
        assert load_records(path) == records


class TestResume:
    def run_full(self, instances, campaign, path):
        return run_campaign(instances, campaign, checkpoint=path)

    def test_resume_after_truncation_is_byte_identical(
        self, instances, campaign, tmp_path
    ):
        full = str(tmp_path / "full.jsonl")
        records = self.run_full(instances, campaign, full)
        blob = open(full, "rb").read()
        lines = blob.split(b"\n")
        for cut_lines, partial in [(0, True), (5, True), (9, False)]:
            part = str(tmp_path / f"part{cut_lines}.jsonl")
            crash = b"\n".join(lines[:cut_lines])
            if crash:
                crash += b"\n"
            if partial:
                crash += lines[cut_lines][: max(0, len(lines[cut_lines]) // 2)]
            with open(part, "wb") as fh:
                fh.write(crash)
            resumed = run_campaign(
                instances, campaign, checkpoint=part, resume=True
            )
            assert resumed == records
            assert open(part, "rb").read() == blob

    def test_resume_complete_run_recomputes_nothing(
        self, instances, campaign, tmp_path, monkeypatch
    ):
        full = str(tmp_path / "full.jsonl")
        records = self.run_full(instances, campaign, full)
        blob = open(full, "rb").read()
        import repro.analysis.campaign as campaign_mod

        def boom(*args, **kwargs):  # no scenario may execute on resume
            raise AssertionError("resume of a complete run recomputed a scenario")

        monkeypatch.setattr(campaign_mod, "_scenario_records", boom)
        resumed = run_campaign(instances, campaign, checkpoint=full, resume=True)
        assert resumed == records
        assert open(full, "rb").read() == blob

    def test_resume_skips_completed_trees(
        self, instances, campaign, tmp_path, monkeypatch
    ):
        full = str(tmp_path / "full.jsonl")
        records = self.run_full(instances, campaign, full)
        blob = open(full, "rb").read()
        per_tree = len(campaign.scenarios_for("-"))
        # keep the first tree's records plus 2 scenarios of the second
        lines = blob.split(b"\n")
        part = str(tmp_path / "part.jsonl")
        with open(part, "wb") as fh:
            fh.write(b"\n".join(lines[: per_tree + 2]) + b"\n")
        import repro.analysis.campaign as campaign_mod

        executed = []
        original = campaign_mod._scenario_records

        def spy(name, prepared, scenarios, validate, *rest):
            executed.extend(sc.key() for sc in scenarios)
            return original(name, prepared, scenarios, validate, *rest)

        monkeypatch.setattr(campaign_mod, "_scenario_records", spy)
        resumed = run_campaign(instances, campaign, checkpoint=part, resume=True)
        assert resumed == records
        assert open(part, "rb").read() == blob
        assert all(key[0] != instances[0].name for key in executed)
        assert len(executed) == 2 * per_tree - 2

    def test_resume_with_workers_matches(self, instances, campaign, tmp_path):
        full = str(tmp_path / "full.jsonl")
        records = self.run_full(instances, campaign, full)
        blob = open(full, "rb").read()
        part = str(tmp_path / "part.jsonl")
        with open(part, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        resumed = run_campaign(
            instances,
            campaign,
            checkpoint=part,
            resume=True,
            workers=2,
        )
        assert resumed == records
        assert open(part, "rb").read() == blob

    def test_resume_rejects_foreign_checkpoint(self, instances, campaign, tmp_path):
        other = Campaign(algorithms=("ParSubtrees",), processor_counts=(2,))
        path = str(tmp_path / "other.jsonl")
        run_campaign(instances, other, checkpoint=path)
        with pytest.raises(ValueError, match="diverges|not produced"):
            run_campaign(instances, campaign, checkpoint=path, resume=True)

    def test_resume_rejects_overlong_checkpoint(self, instances, tmp_path):
        camp = Campaign(algorithms=("ParSubtrees",), processor_counts=(2,))
        path = str(tmp_path / "full.jsonl")
        run_campaign(instances, camp, checkpoint=path)
        smaller = Campaign(algorithms=("ParSubtrees",), processor_counts=(2,))
        with pytest.raises(ValueError, match="not produced"):
            run_campaign(instances[:1], smaller, checkpoint=path, resume=True)

    def test_recover_checkpoint_corrupt_interior_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        good = json.dumps(
            dict(
                tree="t",
                n=5,
                p=2,
                heuristic="H",
                makespan=1.0,
                memory=1.0,
                memory_lb=1.0,
                makespan_lb=1.0,
            )
        )
        with open(path, "w") as fh:
            fh.write(good + "\n")
            fh.write("{broken\n")
            fh.write(good + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            recover_checkpoint(path)


class TestCrashSafeSerialization:
    def record(self, **kw):
        base = dict(
            tree="t",
            n=5,
            p=2,
            heuristic="H",
            makespan=10.0,
            memory=20.0,
            memory_lb=10.0,
            makespan_lb=5.0,
        )
        base.update(kw)
        return ScenarioRecord(**base)

    def test_atomic_overwrite_preserves_old_content_on_failure(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "records.json")
        save_records([self.record()], path)
        before = open(path, "rb").read()
        import repro.analysis.experiments as experiments_mod

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(experiments_mod.json, "dump", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            save_records([self.record(makespan=99.0)], path)
        assert open(path, "rb").read() == before  # old file intact
        assert os.listdir(tmp_path) == ["records.json"]  # no temp residue

    def test_fresh_jsonl_write_is_atomic_too(self, tmp_path, monkeypatch):
        path = str(tmp_path / "records.jsonl")
        save_records([self.record()], path)
        before = open(path, "rb").read()
        import repro.analysis.experiments as experiments_mod

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(experiments_mod.json, "dumps", boom)
        with pytest.raises(RuntimeError):
            save_records([self.record(makespan=99.0)], path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_load_records_recovers_truncated_final_line(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        records = [self.record(), self.record(p=4)]
        save_records(records, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-20])  # cut into the final record
        assert load_records(path) == records[:1]

    def test_load_records_rejects_terminated_malformed_final_line(self, tmp_path):
        # crash residue is always an *unterminated* tail (record + "\n"
        # goes out in one buffer); a newline-terminated bad line is real
        # corruption and must not be silently dropped
        path = str(tmp_path / "records.jsonl")
        save_records([self.record()], path)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(ValueError, match="malformed"):
            load_records(path)

    def test_load_records_rejects_corrupt_interior_line(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            fh.write("{broken\n")
            fh.write(json.dumps(vars(self.record())) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            load_records(path)


class TestRatioRegression:
    def test_zero_baselines_yield_inf_not_raise(self):
        r = ScenarioRecord("t", 1, 2, "H", 5.0, 3.0, 0.0, 0.0)
        assert r.memory_ratio == math.inf
        assert r.makespan_ratio == math.inf

    def test_positive_baselines_unchanged(self):
        r = ScenarioRecord("t", 5, 2, "H", 10.0, 20.0, 10.0, 5.0)
        assert r.memory_ratio == 2.0
        assert r.makespan_ratio == 2.0
