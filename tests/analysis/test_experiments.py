"""Tests for the experiment runner and record serialization."""

import pytest

from repro.analysis.experiments import (
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
            tree=random_weighted_tree(25, rng),
            matrix_name="synthetic",
            ordering="none",
            amalgamation=1,
        )
        for k in range(3)
    ]


class TestRunner:
    def test_record_count(self, instances):
        records = run_experiments(instances, processor_counts=(2, 4))
        assert len(records) == 3 * 2 * 4  # trees x p x heuristics

    def test_lower_bounds_attached(self, instances):
        records = run_experiments(instances, processor_counts=(2,), validate=True)
        for r in records:
            assert r.memory >= r.memory_lb - 1e-9
            assert r.makespan >= r.makespan_lb - 1e-9
            assert r.memory_ratio >= 1.0 - 1e-9
            assert r.makespan_ratio >= 1.0 - 1e-9

    def test_heuristic_subset(self, instances):
        records = run_experiments(
            instances, processor_counts=(2,), heuristics=("ParSubtrees",)
        )
        assert {r.heuristic for r in records} == {"ParSubtrees"}

    def test_memory_lb_constant_across_p(self, instances):
        records = run_experiments(instances[:1], processor_counts=(2, 8))
        lbs = {r.memory_lb for r in records}
        assert len(lbs) == 1


class TestBatchPipeline:
    def test_parallel_records_byte_identical(self, instances, tmp_path):
        """workers=N must reproduce the serial record stream exactly."""
        serial = run_experiments(instances, processor_counts=(2, 4))
        fanned = run_experiments(instances, processor_counts=(2, 4), workers=3)
        assert fanned == serial
        a, b = str(tmp_path / "serial.json"), str(tmp_path / "fanned.json")
        save_records(serial, a)
        save_records(fanned, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_two_workers_paper_dataset_tier(self, tmp_path):
        """The paper-campaign pipeline end to end: dataset tier trees on
        two supervised workers, byte-identical to serial."""
        from repro.workloads.dataset import build_dataset

        instances = build_dataset(scale="tiny")[:6]
        serial = run_experiments(instances, processor_counts=(2, 4))
        fanned = run_experiments(instances, processor_counts=(2, 4), workers=2)
        assert fanned == serial
        a, b = str(tmp_path / "serial.json"), str(tmp_path / "fanned.json")
        save_records(serial, a)
        save_records(fanned, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_three_workers_paper_dataset_tier_streamed(self, tmp_path):
        """Three workers streaming to JSONL: the stream and the returned
        records both match the serial run."""
        from repro.workloads.dataset import build_dataset

        instances = build_dataset(scale="tiny")[:6]
        serial = run_experiments(instances, processor_counts=(2, 8))
        fanned = run_experiments(
            instances,
            processor_counts=(2, 8),
            workers=3,
            stream_to=str(tmp_path / "stream.jsonl"),
        )
        assert fanned == serial
        assert load_records(str(tmp_path / "stream.jsonl")) == serial

    def test_registry_algorithms_accepted(self, instances):
        records = run_experiments(
            instances,
            processor_counts=(2,),
            heuristics=("ParDeepestFirst/hops", "MemoryBounded"),
        )
        assert {r.heuristic for r in records} == {
            "ParDeepestFirst/hops",
            "MemoryBounded",
        }

    def test_streaming_jsonl(self, instances, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        records = run_experiments(
            instances, processor_counts=(2,), workers=2, stream_to=path
        )
        assert load_records(path) == records

    def test_streaming_requires_jsonl(self, instances, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            run_experiments(
                instances,
                processor_counts=(2,),
                stream_to=str(tmp_path / "stream.json"),
            )


class TestSerialization:
    def test_roundtrip(self, instances, tmp_path):
        records = run_experiments(instances, processor_counts=(2,))
        path = str(tmp_path / "records.json")
        save_records(records, path)
        loaded = load_records(path)
        assert loaded == records

    def test_jsonl_roundtrip(self, instances, tmp_path):
        records = run_experiments(instances, processor_counts=(2,))
        path = str(tmp_path / "records.jsonl")
        save_records(records, path)
        assert load_records(path) == records

    def test_jsonl_append(self, instances, tmp_path):
        records = run_experiments(instances, processor_counts=(2,))
        path = str(tmp_path / "records.jsonl")
        save_records(records[:3], path)
        save_records(records[3:], path, append=True)
        assert load_records(path) == records

    def test_append_requires_jsonl(self, tmp_path):
        r = ScenarioRecord("t", 5, 2, "H", 10.0, 20.0, 10.0, 5.0)
        with pytest.raises(ValueError, match="jsonl"):
            save_records([r], str(tmp_path / "records.json"), append=True)

    def test_ratios(self):
        r = ScenarioRecord("t", 5, 2, "H", 10.0, 20.0, 10.0, 5.0)
        assert r.memory_ratio == 2.0
        assert r.makespan_ratio == 2.0
