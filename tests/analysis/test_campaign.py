"""Tests for the declarative campaign runner and resumable checkpoints."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.campaign import Campaign, Scenario, run_campaign
from repro.analysis.supervisor import SupervisorPool
from repro.analysis.store import FailedRecord, ScenarioRecord
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree
from tests.analysis.record_files import read_jsonl, write_jsonl


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
        # a cap factor is the only per-scenario parameter a grid sets
        scenarios = campaign.scenarios_for("tree")
        for sc in scenarios:
            params = dict(sc.params)
            if sc.algorithm == "MemoryBounded":
                assert list(params) == ["cap_factor"]
                assert params["cap_factor"] in (1.5, 2.0)
            else:
                assert params == {}

    def test_unknown_algorithm_fails_fast(self):
        camp = Campaign(algorithms=("NoSuchAlgorithm",), processor_counts=(2,))
        with pytest.raises(KeyError, match="NoSuchAlgorithm"):
            camp.scenarios_for("tree")

    def test_scenario_key(self):
        sc = Scenario(tree="t", algorithm="A", p=4, label="A@cap2")
        assert sc.key() == ("t", "A@cap2", 4)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0, -1])
    def test_cap_factors_must_be_finite_and_positive(self, cap):
        with pytest.raises(ValueError, match="finite and positive"):
            Campaign(algorithms=("MemoryBounded",), processor_counts=(2,), cap_factors=(2.0, cap))

    def test_cap_factors_are_floats(self):
        camp = Campaign(algorithms=("MemoryBounded",), processor_counts=(2,), cap_factors=(2, 1.5))
        assert camp.cap_factors == (2.0, 1.5)
        assert all(type(c) is float for c in camp.cap_factors)
        assert [sc.label for sc in camp.scenarios_for("t")] == [
            "MemoryBounded@cap2",
            "MemoryBounded@cap1.5",
        ]


class TestRunCampaign:
    def test_matches_direct_scheduling_for_plain_grid(self, instances):
        """Records equal a per-scenario loop of schedule + simulate +
        the two lower bounds, in tree, p, algorithm order."""
        from repro import registry
        from repro.core import memory_lower_bound, simulate
        from repro.core.bounds import makespan_lower_bound

        algos = ("ParDeepestFirst", "ParInnerFirst")
        camp = Campaign(algorithms=algos, processor_counts=(2, 4))
        expected = []
        for inst in instances:
            for p in (2, 4):
                for name in algos:
                    sim = simulate(registry.run(name, inst.tree, p))
                    expected.append(ScenarioRecord(
                        inst.name, inst.tree.n, p, name, sim.makespan, sim.peak_memory,
                        memory_lower_bound(inst.tree), makespan_lower_bound(inst.tree, p),
                    ))
        assert run_campaign(instances, camp) == expected

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"timeout": 0}, "timeout"),
            ({"timeout": -1.0}, "timeout"),
            ({"timeout": float("nan")}, "timeout"),
            ({"workers": 0}, "workers must be >= 1"),
            ({"workers": -2}, "workers must be >= 1"),
            ({"retries": -1}, "retries must be >= 0"),
            ({"backoff": -0.5}, "backoff must be >= 0"),
            ({"backoff": float("nan")}, "backoff must be >= 0"),
        ],
    )
    def test_bad_pool_setting_rejected_before_any_worker(
        self, setting, match, monkeypatch
    ):
        def no_spawn(*_a, **_k):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(SupervisorPool, "_spawn", no_spawn)
        with pytest.raises(ValueError, match=match):
            SupervisorPool(**setting)

    def test_cap_grid_records(self, instances, campaign):
        records = run_campaign(instances, campaign)
        assert len(records) == 3 * len(campaign.scenarios_for("-"))
        capped = [r for r in records if r.heuristic.startswith("MemoryBounded@")]
        assert capped, "cap grid missing"
        for r in capped:
            factor = float(r.heuristic.split("@cap")[1])
            # the capped scheduler never exceeds the cap
            assert r.memory <= factor * r.memory_lb + 1e-9

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_split_single_tree_byte_identical(
        self, instances, campaign, tmp_path, workers
    ):
        """One tree, more workers than trees: the group is split into
        contiguous units across the workers, same records, same bytes."""
        serial = run_campaign(instances[:1], campaign)
        with SupervisorPool(workers=workers) as pool:
            split = run_campaign(instances[:1], campaign, runtime=pool)
        assert split == serial
        assert write_jsonl(serial, tmp_path / "serial.jsonl") == write_jsonl(
            split, tmp_path / "split.jsonl"
        )

    def test_no_runtime_runs_in_process(self, instances, campaign, monkeypatch):
        with SupervisorPool(workers=3) as pool:
            ref = run_campaign(instances, campaign, runtime=pool)

        def boom(*args, **kwargs):
            raise AssertionError("runtime=None must not start a worker pool")

        monkeypatch.setattr(SupervisorPool, "__init__", boom)
        assert run_campaign(instances, campaign) == ref

    @pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "pool"])
    def test_workers_quarantine_infeasible_cap_in_stream_position(
        self, instances, tmp_path, workers
    ):
        """One failure rule on both runtimes: a deterministic scenario
        error becomes a FailedRecord (one attempt) at that scenario's
        stream position, with the records and the checkpoint bytes of
        the other runtime."""
        camp = Campaign(
            algorithms=("ParDeepestFirst", "MemoryBounded"),
            processor_counts=(2, 4),
            cap_factors=(0.05, 2.0),  # 0.05: far below the sequential optimum
        )

        def run(runtime_workers, name):
            path = str(tmp_path / name)
            if runtime_workers is None:
                return run_campaign(instances, camp, checkpoint=path), path
            with SupervisorPool(workers=runtime_workers) as pool:
                return run_campaign(instances, camp, runtime=pool, checkpoint=path), path

        records, path = run(workers, "records.jsonl")
        other, other_path = run(2 if workers is None else None, "other.jsonl")
        expected = [
            sc.key() for inst in instances for sc in camp.scenarios_for(inst.name)
        ]
        assert [(r.tree, r.heuristic, r.p) for r in records] == expected
        for r in records:
            infeasible = r.heuristic == "MemoryBounded@cap0.05"
            assert isinstance(r, FailedRecord) == infeasible
            if infeasible:
                assert "MemoryCapError" in r.error and r.attempts == 1
        assert records == other
        assert open(path, "rb").read() == open(other_path, "rb").read()

    def test_in_process_raises_other_errors(self, instances, campaign, monkeypatch):
        """Only the deterministic error class is settled as a record;
        anything else still propagates out of an in-process run."""
        from repro.analysis import campaign as campaign_mod

        def oom(*_a, **_k):
            raise MemoryError("out of memory")

        monkeypatch.setattr(campaign_mod, "simulate", oom)
        with pytest.raises(MemoryError):
            run_campaign(instances, campaign)

    def test_prepare_failure_settles_its_group(self, instances, campaign, monkeypatch):
        """A deterministic failure to prepare a tree settles every
        scenario of that tree's group, and no other."""
        from repro.analysis import campaign as campaign_mod

        real = campaign_mod.PreparedTree

        def prepare(tree):
            if tree is instances[1].tree:
                raise ValueError("unpreparable tree")
            return real(tree)

        monkeypatch.setattr(campaign_mod, "PreparedTree", prepare)
        records = run_campaign(instances, campaign)
        per_tree = len(campaign.scenarios_for("-"))
        assert len(records) == 3 * per_tree
        for r in records:
            assert isinstance(r, FailedRecord) == (r.tree == "t1")
            if r.tree == "t1":
                assert r.error == "ValueError: unpreparable tree" and r.attempts == 1

    def test_progress_lines_go_to_stderr(self, instances, campaign, capsys):
        run_campaign(instances, campaign, progress=True)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"  done {inst.name} (n={inst.tree.n})" for inst in instances
        ]

    def test_checkpoint_requires_jsonl(self, instances, campaign, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            run_campaign(
                instances, campaign, checkpoint=str(tmp_path / "records.json")
            )

    def test_checkpoint_stream_matches_records(self, instances, campaign, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with SupervisorPool(workers=2) as pool:
            records = run_campaign(instances, campaign, checkpoint=path, runtime=pool)
        assert read_jsonl(path) == records


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
        with SupervisorPool(workers=2) as pool:
            resumed = run_campaign(
                instances,
                campaign,
                checkpoint=part,
                resume=True,
                runtime=pool,
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

    def test_iter_records_recovers_truncated_final_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [self.record(), self.record(p=4)]
        blob = write_jsonl(records, path)
        path.write_bytes(blob[:-20])  # cut into the final record
        assert read_jsonl(path) == records[:1]

    def test_iter_records_rejects_terminated_malformed_final_line(self, tmp_path):
        # crash residue is always an *unterminated* tail (record + "\n"
        # goes out in one buffer); a newline-terminated bad line is real
        # corruption and must not be silently dropped
        path = tmp_path / "records.jsonl"
        write_jsonl([self.record()], path)
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with pytest.raises(ValueError, match="malformed"):
            read_jsonl(path)

    def test_iter_records_rejects_corrupt_interior_line(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        with open(path, "w") as fh:
            fh.write("{broken\n")
            fh.write(json.dumps(vars(self.record())) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_jsonl(path)


class TestRatioRegression:
    def test_zero_baselines_yield_inf_not_raise(self):
        r = ScenarioRecord("t", 1, 2, "H", 5.0, 3.0, 0.0, 0.0)
        assert r.memory_ratio == math.inf
        assert r.makespan_ratio == math.inf

    def test_positive_baselines_unchanged(self):
        r = ScenarioRecord("t", 5, 2, "H", 10.0, 20.0, 10.0, 5.0)
        assert r.memory_ratio == 2.0
        assert r.makespan_ratio == 2.0


class TestRecordsMatchReferenceSimulate:
    """Every record's makespan and peak memory -- measured on this
    process's dispatch, the C library's profile where it builds -- hold
    the bytes ``simulate`` gives on the numpy reference profile, on
    every matrix tree the golden subtree tests draw from."""

    @pytest.mark.parametrize("scale, step", [("tiny", 1), ("small", 16)])
    def test_golden_matrix_trees(self, scale, step, monkeypatch):
        import numpy as np

        from repro import registry
        from repro.core import simulator
        from repro.workloads.dataset import build_dataset

        instances = build_dataset(scale=scale)[::step]
        camp = Campaign(
            algorithms=tuple(registry.names("parallel")),
            processor_counts=(2, 4),
            cap_factors=(1.5, 3.0),
        )
        records = run_campaign(instances, camp)
        monkeypatch.setattr(simulator, "resolve_backend", lambda: "python")
        scenarios = [
            (inst, sc) for inst in instances for sc in camp.scenarios_for(inst.name)
        ]
        assert len(records) == len(scenarios)
        bits = lambda x: np.float64(x).tobytes()  # noqa: E731
        checked = 0
        for record, (inst, sc) in zip(records, scenarios):
            assert (record.tree, record.heuristic, record.p) == sc.key()
            if isinstance(record, FailedRecord):  # an infeasible cap
                continue
            schedule = registry.run(sc.algorithm, inst.tree, sc.p, **dict(sc.params))
            sim = simulator.simulate(schedule)
            assert bits(record.makespan) == bits(sim.makespan), sc
            assert bits(record.memory) == bits(sim.peak_memory), sc
            checked += 1
        assert checked > 0.9 * len(records)
