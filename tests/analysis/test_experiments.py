"""Tests for the paper's campaign grid and its record files."""

import pytest

from repro.analysis.campaign import Campaign, run_campaign
from repro.analysis.supervisor import SupervisorPool
from repro.analysis.store import JsonlStore, ScenarioRecord
from repro.parallel import HEURISTICS
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree
from tests.analysis.record_files import read_jsonl, write_jsonl


def paper_grid(
    instances, processor_counts, algorithms=tuple(HEURISTICS), validate=False, workers=None, **run
):
    """The paper's Section 6 grid (the four heuristics by default), in
    process or on a pool of ``workers``."""
    campaign = Campaign(
        algorithms=tuple(algorithms), processor_counts=processor_counts, validate=validate
    )
    if workers is None:
        return run_campaign(instances, campaign, **run)
    with SupervisorPool(workers=workers) as pool:
        return run_campaign(instances, campaign, runtime=pool, **run)


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
        records = paper_grid(instances, (2, 4))
        assert len(records) == 3 * 2 * 4  # trees x p x heuristics

    def test_lower_bounds_attached(self, instances):
        records = paper_grid(instances, (2,), validate=True)
        for r in records:
            assert r.memory >= r.memory_lb - 1e-9
            assert r.makespan >= r.makespan_lb - 1e-9
            assert r.memory_ratio >= 1.0 - 1e-9
            assert r.makespan_ratio >= 1.0 - 1e-9

    def test_heuristic_subset(self, instances):
        records = paper_grid(instances, (2,), algorithms=("ParSubtrees",))
        assert {r.heuristic for r in records} == {"ParSubtrees"}

    def test_memory_lb_constant_across_p(self, instances):
        records = paper_grid(instances[:1], (2, 8))
        lbs = {r.memory_lb for r in records}
        assert len(lbs) == 1


class TestBatchPipeline:
    def test_parallel_records_byte_identical(self, instances, tmp_path):
        """A pool of N workers must reproduce the serial record stream exactly."""
        serial = paper_grid(instances, (2, 4))
        fanned = paper_grid(instances, (2, 4), workers=3)
        assert fanned == serial
        assert write_jsonl(serial, tmp_path / "serial.jsonl") == write_jsonl(
            fanned, tmp_path / "fanned.jsonl"
        )

    def test_two_workers_paper_dataset_tier(self, tmp_path):
        """The paper-campaign pipeline end to end: dataset tier trees on
        two supervised workers, byte-identical to serial."""
        from repro.workloads.dataset import build_dataset

        instances = build_dataset(scale="tiny")[:6]
        serial = paper_grid(instances, (2, 4))
        fanned = paper_grid(instances, (2, 4), workers=2)
        assert fanned == serial
        assert write_jsonl(serial, tmp_path / "serial.jsonl") == write_jsonl(
            fanned, tmp_path / "fanned.jsonl"
        )

    def test_three_workers_paper_dataset_tier_streamed(self, tmp_path):
        """Three workers streaming to JSONL: the stream and the returned
        records both match the serial run."""
        from repro.workloads.dataset import build_dataset

        instances = build_dataset(scale="tiny")[:6]
        serial = paper_grid(instances, (2, 8))
        fanned = paper_grid(
            instances, (2, 8), workers=3, checkpoint=str(tmp_path / "stream.jsonl")
        )
        assert fanned == serial
        assert read_jsonl(tmp_path / "stream.jsonl") == serial

    def test_registry_algorithms_accepted(self, instances):
        records = paper_grid(
            instances, (2,), algorithms=("ParDeepestFirst/hops", "MemoryBounded")
        )
        assert {r.heuristic for r in records} == {
            "ParDeepestFirst/hops",
            "MemoryBounded",
        }

    def test_streaming_jsonl(self, instances, tmp_path):
        path = tmp_path / "stream.jsonl"
        records = paper_grid(instances, (2,), workers=2, checkpoint=str(path))
        assert read_jsonl(path) == records

    def test_streaming_requires_jsonl(self, instances, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            paper_grid(instances, (2,), checkpoint=str(tmp_path / "stream.json"))


class TestSerialization:
    def test_roundtrip(self, instances, tmp_path):
        """The grid's checkpoint reads back as the records it returned,
        and rewriting them gives the checkpoint's bytes."""
        path = tmp_path / "stream.jsonl"
        records = paper_grid(instances, (2,), checkpoint=str(path))
        assert read_jsonl(path, include_failed=True) == records
        assert write_jsonl(records, tmp_path / "again.jsonl") == path.read_bytes()

    def test_jsonl_roundtrip(self, instances, tmp_path):
        records = paper_grid(instances, (2,))
        path = tmp_path / "records.jsonl"
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    def test_jsonl_append(self, instances, tmp_path):
        records = paper_grid(instances, (2,))
        path = tmp_path / "records.jsonl"
        write_jsonl(records[:3], path)
        JsonlStore(str(path)).append(records[3:])
        assert read_jsonl(path) == records

    def test_append_requires_jsonl(self, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            JsonlStore(str(tmp_path / "records.json"))

    def test_ratios(self):
        r = ScenarioRecord("t", 5, 2, "H", 10.0, 20.0, 10.0, 5.0)
        assert r.memory_ratio == 2.0
        assert r.makespan_ratio == 2.0
