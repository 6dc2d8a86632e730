"""The columnar campaign store and its equivalence contract.

The acceptance oracle of every backend is *record-for-record equality
with the historical JSONL checkpoint*: whatever path a record stream
takes (JSONL file, sealed npz segments + open tail, shard merge, crash
mid-append, truncate + resume), packing it back to JSONL must reproduce
the undisturbed checkpoint byte for byte. On top of that, the
vectorised analysis paths (table 1, groupby, figures, Pareto) must
agree with their per-record reference loops on the same columns.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.campaign import Campaign, run_campaign
from repro.analysis.experiments import (
    FailedRecord,
    ScenarioRecord,
    iter_records,
    load_records,
    save_records,
)
from repro.analysis.figures import figure_data
from repro.analysis.metrics import (
    compute_table1_stats,
    compute_table1_stats_reference,
    group_stats,
    split_label,
)
from repro.analysis.pareto import (
    ParetoPoint,
    hypervolume,
    hypervolume_columns,
    pareto_front,
    pareto_front_columns,
)
from repro.analysis.store import (
    ColumnarStore,
    JsonlStore,
    RecordColumns,
    merge_stores,
    open_store,
    pack_store,
)
from repro.testing.faults import CRASH_EXIT, ENV_VAR, Fault, FaultPlan
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree

def mixed_records() -> list[ScenarioRecord | FailedRecord]:
    """A small stream with FailedRecord rows interleaved mid-stream."""
    return [
        ScenarioRecord("t0", 25, 2, "ParSubtrees", 10.0, 7.0, 5.0, 4.0),
        FailedRecord("t0", 25, 4, "ParSubtrees", "worker crash: exit code 39", 3),
        ScenarioRecord("t0", 25, 4, "ParDeepestFirst", 8.5, 9.0, 5.0, 4.0),
        ScenarioRecord("t1", 40, 2, "MemoryBounded@cap1.5", 12.0, 6.0, 6.0, 3.0),
        FailedRecord("t1", 40, 2, "MemoryBounded@cap0.1", "MemoryCapError: infeasible", 1),
        ScenarioRecord("t1", 40, 4, "ParSubtrees", 11.0, 6.5, 6.0, 3.0),
    ]


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
        algorithms=("ParSubtrees", "ParDeepestFirst"), processor_counts=(2, 4)
    )


@pytest.fixture
def reference(instances, campaign, tmp_path):
    """The undisturbed record stream and its JSONL checkpoint bytes."""
    path = tmp_path / "reference.jsonl"
    records = run_campaign(instances, campaign, checkpoint=str(path))
    return records, path


# ----------------------------------------------------------------------
# RecordColumns: the analysis currency
# ----------------------------------------------------------------------
class TestRecordColumns:
    def test_round_trip_preserves_failed_interleaving(self):
        records = mixed_records()
        cols = RecordColumns.from_records(records)
        assert len(cols) == len(records)
        assert cols.to_records(include_failed=True) == records
        assert cols.to_records() == [
            r for r in records if not isinstance(r, FailedRecord)
        ]

    def test_measured_drops_failed_rows(self):
        cols = RecordColumns.from_records(mixed_records())
        good = cols.measured()
        assert len(good) == 4
        assert not good.failed.any()
        assert np.isfinite(good.makespan).all()

    def test_ratios_match_scalar_properties(self):
        cols = RecordColumns.from_records(mixed_records()).measured()
        for i, r in enumerate(cols.to_records()):
            assert cols.makespan_ratio()[i] == r.makespan_ratio
            assert cols.memory_ratio()[i] == r.memory_ratio

    def test_ratio_degenerate_baseline_is_inf(self):
        cols = RecordColumns.from_records(
            [ScenarioRecord("t", 5, 2, "A", 1.0, 2.0, 0.0, 0.0)]
        )
        assert cols.memory_ratio()[0] == np.inf
        assert cols.makespan_ratio()[0] == np.inf

    def test_concat_take_empty(self):
        cols = RecordColumns.from_records(mixed_records())
        both = RecordColumns.concat([cols, cols])
        assert len(both) == 2 * len(cols)
        assert both.take(np.arange(len(cols))).to_records(True) == cols.to_records(True)
        assert len(RecordColumns.concat([])) == 0
        assert RecordColumns.empty().to_records(True) == []
        assert len(RecordColumns.concat([RecordColumns.empty(), cols])) == len(cols)


# ----------------------------------------------------------------------
# JsonlStore: the historical format behind the store interface
# ----------------------------------------------------------------------
class TestJsonlStore:
    def test_rejects_non_jsonl_paths(self):
        with pytest.raises(ValueError, match="jsonl"):
            JsonlStore("records.csv")

    def test_append_recover_round_trip(self, tmp_path):
        store = JsonlStore(str(tmp_path / "r.jsonl"))
        store.reset()
        records = mixed_records()
        store.append(records[:3])
        store.append(records[3:])
        assert list(store.recover()) == records
        assert store.count() == len(records)

    def test_append_bytes_identical_to_save_records(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        records = mixed_records()
        save_records(records, str(a), append=True)
        store = JsonlStore(str(b))
        for r in records:
            store.append([r])
        assert filecmp.cmp(str(a), str(b), shallow=False)

    def test_recover_drops_torn_tail_iter_records_is_lenient(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JsonlStore(str(path))
        store.append(mixed_records()[:2])
        with open(path, "ab") as fh:
            fh.write(b'{"tree": "t9", "heuri')  # torn crash residue
        assert len(list(store.recover())) == 2  # strict: residue dropped
        # a *parseable* unterminated last line is a hand-written file,
        # not crash residue: iter_records keeps it (load_records rules)
        good = json.dumps(
            {"tree": "t9", "n": 5, "p": 2, "heuristic": "A",
             "makespan": 1.0, "memory": 2.0, "memory_lb": 1.0,
             "makespan_lb": 1.0}
        ).encode()
        with open(path, "r+b") as fh:
            end = fh.seek(0, os.SEEK_END) - 21
            fh.truncate(end)
            fh.seek(end)
            fh.write(good)
        assert len(list(store.iter_records(include_failed=True))) == 3

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"tree": broken}\n')
        with pytest.raises(ValueError, match="malformed|corrupt"):
            list(JsonlStore(str(path)).recover())

    def test_truncate(self, tmp_path):
        store = JsonlStore(str(tmp_path / "r.jsonl"))
        records = mixed_records()
        store.append(records)
        store.truncate(2)
        assert list(store.recover()) == records[:2]
        with pytest.raises(ValueError, match="only 2 present"):
            store.truncate(5)


# ----------------------------------------------------------------------
# ColumnarStore: segments, tail, sealing, crash recovery
# ----------------------------------------------------------------------
class TestColumnarStore:
    def test_append_recover_round_trip(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"))
        store.reset()
        records = mixed_records()
        for r in records:
            store.append([r])
        assert list(store.recover()) == records
        assert store.count() == len(records)

    def test_auto_seal_produces_segments(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=2)
        records = mixed_records()
        for r in records:
            store.append([r])
        m = json.load(open(store._manifest_path))
        assert [seg["rows"] for seg in m["segments"]] == [2, 2, 2]
        assert list(store.recover()) == records  # order across seals

    def test_seal_rows_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SEAL_ROWS", "3")
        store = ColumnarStore(str(tmp_path / "d.store"))
        assert store.seal_rows == 3

    def test_finalize_seals_tail(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=100)
        records = mixed_records()
        store.append(records)
        store.finalize()
        m = json.load(open(store._manifest_path))
        assert sum(seg["rows"] for seg in m["segments"]) == len(records)
        tail = store._tail_path(m)
        assert os.path.getsize(tail) == 0
        assert list(store.recover()) == records
        store.finalize()  # idempotent on an empty tail
        assert json.load(open(store._manifest_path))["tail_gen"] == m["tail_gen"]

    def test_columns_match_jsonl_columns(self, tmp_path):
        records = mixed_records()
        js = JsonlStore(str(tmp_path / "r.jsonl"))
        js.append(records)
        cs = ColumnarStore(str(tmp_path / "d.store"), seal_rows=2)
        cs.append(records)
        a, b = js.columns(include_failed=True), cs.columns(include_failed=True)
        for name, arr in a.arrays().items():
            np.testing.assert_array_equal(arr, getattr(b, name))
        assert len(cs.columns(include_failed=False)) == 4

    def test_torn_tail_dropped_on_recover(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=100)
        records = mixed_records()
        store.append(records)
        m = store._manifest()
        with open(store._tail_path(m), "ab") as fh:
            fh.write(b'{"tree": "t9", "heuri')
        fresh = ColumnarStore(str(tmp_path / "d.store"))
        assert list(fresh.recover()) == records

    def test_crash_between_segment_and_manifest_is_invisible(self, tmp_path):
        """Seal order is segment-publish -> manifest-commit. A crash in
        between leaves an orphan segment the manifest never references:
        recover() ignores it and the next reset() garbage-collects it."""
        store = ColumnarStore(str(tmp_path / "d.store"))
        records = mixed_records()
        store.append(records)
        orphan = os.path.join(store.path, "seg-000099.npz")
        store._segment_write(RecordColumns.from_records(records), orphan)
        store.close()  # the "crashed" writer is gone; its lock with it
        fresh = ColumnarStore(str(tmp_path / "d.store"))
        assert list(fresh.recover()) == records
        fresh.reset()
        assert not os.path.exists(orphan)

    def test_truncate_inside_tail(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=100)
        records = mixed_records()
        store.append(records)
        store.truncate(2)
        assert list(store.recover()) == records[:2]

    def test_truncate_inside_sealed_segment(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=2)
        records = mixed_records()
        for r in records:
            store.append([r])  # three sealed segments of 2
        store.truncate(3)  # cut lands mid-segment #1
        assert list(store.recover()) == records[:3]
        m = json.load(open(store._manifest_path))
        assert [seg["rows"] for seg in m["segments"]] == [2, 1]

    def test_truncate_at_segment_boundary_drops_tail(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=4)
        records = mixed_records()
        store.append(records[:4])  # sealed
        store.append(records[4:])  # tail
        store.truncate(4)
        assert list(store.recover()) == records[:4]
        store.truncate(0)
        assert list(store.recover()) == []

    def test_truncate_beyond_count_raises(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"))
        store.append(mixed_records())
        with pytest.raises(ValueError, match="only 6 present"):
            store.truncate(7)

    def test_backend_mismatch_rejected(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "d.store"))
        store.reset()
        manifest = json.load(open(store._manifest_path))
        manifest["backend"] = "parquet"
        with open(store._manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises((ValueError, RuntimeError)):
            list(ColumnarStore(str(tmp_path / "d.store")).recover())

    def test_not_a_manifest_rejected(self, tmp_path):
        d = tmp_path / "d.store"
        d.mkdir()
        (d / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="manifest"):
            list(ColumnarStore(str(d)).recover())


# ----------------------------------------------------------------------
# open_store / pack / merge
# ----------------------------------------------------------------------
class TestOpenPackMerge:
    def test_auto_resolution(self, tmp_path):
        assert open_store(str(tmp_path / "r.jsonl")).backend == "jsonl"
        cs = ColumnarStore(str(tmp_path / "d.store"))
        cs.reset()
        assert open_store(str(tmp_path / "d.store")).backend == "columnar"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(str(tmp_path / "x"), backend="csv")

    def test_pack_columnar_to_jsonl_matches_save_records(self, tmp_path):
        records = mixed_records()
        ref = tmp_path / "ref.jsonl"
        save_records(records, str(ref), append=True)
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=2)
        for r in records:
            store.append([r])
        out = tmp_path / "packed.jsonl"
        assert pack_store(str(tmp_path / "d.store"), str(out)) == len(records)
        assert filecmp.cmp(str(ref), str(out), shallow=False)

    def test_pack_jsonl_to_columnar_and_back(self, tmp_path):
        records = mixed_records()
        src = tmp_path / "src.jsonl"
        save_records(records, str(src), append=True)
        pack_store(str(src), str(tmp_path / "d.store"))  # auto -> columnar
        assert open_store(str(tmp_path / "d.store")).backend == "columnar"
        back = tmp_path / "back.jsonl"
        pack_store(str(tmp_path / "d.store"), str(back))
        assert filecmp.cmp(str(src), str(back), shallow=False)

    def test_merge_shards_in_stream_order(self, tmp_path):
        records = mixed_records()
        shard0 = ColumnarStore(str(tmp_path / "s0.store"))
        shard0.append(records[:2])
        shard1 = JsonlStore(str(tmp_path / "s1.jsonl"))
        shard1.append(records[2:])
        n = merge_stores(
            str(tmp_path / "all.store"),
            [str(tmp_path / "s0.store"), str(tmp_path / "s1.jsonl")],
        )
        assert n == len(records)
        merged = open_store(str(tmp_path / "all.store"))
        assert list(merged.recover()) == records

    def test_merge_to_jsonl_is_concatenation(self, tmp_path):
        records = mixed_records()
        ref = tmp_path / "ref.jsonl"
        save_records(records, str(ref), append=True)
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        save_records(records[:3], str(s0), append=True)
        save_records(records[3:], str(s1), append=True)
        merge_stores(str(tmp_path / "all.jsonl"), [str(s0), str(s1)])
        assert filecmp.cmp(str(ref), str(tmp_path / "all.jsonl"), shallow=False)


# ----------------------------------------------------------------------
# iter_records / load_records / save_records store-dir dispatch
# ----------------------------------------------------------------------
class TestExperimentsDispatch:
    def test_iter_records_streams_jsonl(self, tmp_path):
        path = tmp_path / "r.jsonl"
        save_records(mixed_records(), str(path), append=True)
        assert list(iter_records(str(path))) == load_records(str(path))
        assert (
            list(iter_records(str(path), include_failed=True))
            == load_records(str(path), include_failed=True)
        )

    def test_iter_and_load_records_on_store_dir(self, tmp_path):
        records = mixed_records()
        store = ColumnarStore(str(tmp_path / "d.store"), seal_rows=2)
        store.append(records)
        good = [r for r in records if not isinstance(r, FailedRecord)]
        assert list(iter_records(str(tmp_path / "d.store"))) == good
        assert load_records(str(tmp_path / "d.store")) == good
        assert (
            load_records(str(tmp_path / "d.store"), include_failed=True) == records
        )

    def test_save_records_into_store_dir(self, tmp_path):
        records = mixed_records()
        store = ColumnarStore(str(tmp_path / "d.store"))
        store.reset()
        save_records(records, str(tmp_path / "d.store"), append=True)
        assert list(open_store(str(tmp_path / "d.store")).recover()) == records


# ----------------------------------------------------------------------
# the retired parquet backend
# ----------------------------------------------------------------------
class TestParquetRetired:
    def test_parquet_manifest_is_a_clear_error(self, tmp_path):
        store = ColumnarStore(str(tmp_path / "p.store"))
        store.reset()
        manifest = json.load(open(store._manifest_path))
        manifest["backend"] = "parquet"
        with open(store._manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="'parquet'"):
            open_store(str(tmp_path / "p.store"))

    def test_parquet_is_not_a_backend(self, tmp_path):
        with pytest.raises(ValueError, match="'parquet'"):
            open_store(str(tmp_path / "p.store"), backend="parquet")


# ----------------------------------------------------------------------
# campaign integration: columnar checkpoints, resume, faults
# ----------------------------------------------------------------------
class TestCampaignColumnar:
    def test_columnar_campaign_packs_byte_identical(
        self, instances, campaign, reference, tmp_path
    ):
        records, ref_path = reference
        d = tmp_path / "ck.store"
        got = run_campaign(
            instances, campaign, checkpoint=str(d), store="columnar"
        )
        assert got == records
        # finalize() sealed the finished run into pure segments
        m = json.load(open(d / "manifest.json"))
        assert sum(seg["rows"] for seg in m["segments"]) == len(records)
        packed = tmp_path / "packed.jsonl"
        pack_store(str(d), str(packed))
        assert filecmp.cmp(str(ref_path), str(packed), shallow=False)

    def test_truncated_columnar_checkpoint_resumes(
        self, instances, campaign, reference, tmp_path
    ):
        records, ref_path = reference
        d = tmp_path / "ck.store"
        run_campaign(instances, campaign, checkpoint=str(d), store="columnar")
        store = ColumnarStore(str(d))
        store.truncate(5)  # cut inside the (single) sealed segment
        # ...plus torn crash residue in the tail
        m = store._manifest()
        with open(store._tail_path(m), "ab") as fh:
            fh.write(b'{"tree": "t0", "heu')
        got = run_campaign(
            instances, campaign, checkpoint=str(d), resume=True
        )
        assert got == records
        packed = tmp_path / "packed.jsonl"
        pack_store(str(d), str(packed))
        assert filecmp.cmp(str(ref_path), str(packed), shallow=False)

    def test_diverging_columnar_checkpoint_rejected(
        self, instances, campaign, tmp_path
    ):
        d = tmp_path / "ck.store"
        run_campaign(instances, campaign, checkpoint=str(d), store="columnar")
        other = Campaign(algorithms=("ParInnerFirst",), processor_counts=(2,))
        with pytest.raises(ValueError, match="diverges|not produced"):
            run_campaign(instances, other, checkpoint=str(d), resume=True)

    def test_store_backend_needs_checkpoint(self, instances, campaign):
        with pytest.raises(ValueError, match="checkpoint"):
            run_campaign(instances, campaign, store="columnar")

    def test_quarantine_and_retry_failed_under_columnar(
        self, instances, campaign, reference, tmp_path
    ):
        records, ref_path = reference
        d = tmp_path / "ck.store"
        plan = FaultPlan((Fault(kind="crash", scenario="t1|ParSubtrees|2"),))
        first = run_campaign(
            instances,
            campaign,
            checkpoint=str(d),
            store="columnar",
            supervise=True,
            retries=0,
            fault_plan=plan,
        )
        failed = [r for r in first if isinstance(r, FailedRecord)]
        assert len(failed) == 1
        # resume skips the quarantined scenario by default...
        resumed = run_campaign(
            instances, campaign, checkpoint=str(d), resume=True, supervise=True
        )
        assert resumed == first
        # ...and retry_failed heals the store to byte identity
        healed = run_campaign(
            instances,
            campaign,
            checkpoint=str(d),
            resume=True,
            supervise=True,
            retry_failed=True,
        )
        assert healed == records
        packed = tmp_path / "packed.jsonl"
        pack_store(str(d), str(packed))
        assert filecmp.cmp(str(ref_path), str(packed), shallow=False)


_GRID_SRC = """
import numpy as np
from repro.analysis.campaign import Campaign, run_campaign
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree

def make_grid(sizes=(25, 35, 45), backend=None):
    rng = np.random.default_rng(20130520)
    instances = [
        TreeInstance(name=f"t{k}", tree=random_weighted_tree(n, rng),
                     matrix_name="synthetic", ordering="none", amalgamation=1)
        for k, n in enumerate(sizes)
    ]
    campaign = Campaign(algorithms=("ParSubtrees", "ParDeepestFirst"),
                        processor_counts=(2, 4), backend=backend)
    return instances, campaign
"""


def _pythonpath() -> str:
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    existing = os.environ.get("PYTHONPATH", "")
    return os.path.abspath(src) + (os.pathsep + existing if existing else "")


class TestColumnarCrashSubprocess:
    def test_truncated_tail_append_then_resume_heals(
        self, instances, campaign, reference, tmp_path
    ):
        """The REPRO_FAULT_PLAN power-loss drill under ``--store
        columnar``: the 5th tail append writes half a line and
        hard-exits; the resume drops the residue, finishes the grid,
        and the packed store is byte-identical to an undisturbed JSONL
        run."""
        records, ref_path = reference
        d = tmp_path / "ck.store"
        code = (
            _GRID_SRC
            + f"""
instances, campaign = make_grid()
run_campaign(instances, campaign, checkpoint={str(d)!r}, store="columnar")
"""
        )
        plan = FaultPlan((Fault(kind="truncate_write", record=4),))
        env = {**os.environ, ENV_VAR: plan.to_json(), "PYTHONPATH": _pythonpath()}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == CRASH_EXIT, proc.stderr.decode()
        store = ColumnarStore(str(d))
        m = store._manifest()
        tail = open(store._tail_path(m), "rb").read()
        assert not tail.endswith(b"\n")  # the torn fifth line
        assert len(list(store.recover())) == 4

        resumed = run_campaign(
            instances, campaign, checkpoint=str(d), resume=True
        )
        assert resumed == records
        packed = tmp_path / "packed.jsonl"
        pack_store(str(d), str(packed))
        assert filecmp.cmp(str(ref_path), str(packed), shallow=False)


# ----------------------------------------------------------------------
# vectorised analysis: golden equality with the reference loops
# ----------------------------------------------------------------------
class TestVectorizedAnalysis:
    def test_table1_matches_reference_loop(self, reference):
        records, _ = reference
        assert compute_table1_stats(records) == compute_table1_stats_reference(
            records
        )

    def test_table1_accepts_columns(self, reference):
        records, _ = reference
        cols = RecordColumns.from_records(records)
        assert compute_table1_stats(cols) == compute_table1_stats_reference(records)

    def test_figure_data_columns_match_records(self, instances):
        # figures 7/8 need their reference heuristics in the stream
        camp = Campaign(
            algorithms=("ParSubtrees", "ParInnerFirst", "ParDeepestFirst"),
            processor_counts=(2, 4),
        )
        records = run_campaign(instances, camp)
        cols = RecordColumns.from_records(records)
        for which in (6, 7, 8):
            a = figure_data(records, which)
            b = figure_data(cols, which)
            assert [s.heuristic for s in a] == [s.heuristic for s in b]
            for sa, sb in zip(a, b):
                np.testing.assert_array_equal(sa.x, sb.x)
                np.testing.assert_array_equal(sa.y, sb.y)

    def test_group_stats_cells(self):
        records = [
            ScenarioRecord("a", 10, 2, "ParSubtrees", 8.0, 6.0, 3.0, 4.0),
            ScenarioRecord("b", 10, 2, "ParSubtrees", 6.0, 9.0, 3.0, 4.0),
            ScenarioRecord("a", 10, 2, "MemoryBounded@cap1.5", 10.0, 3.0, 3.0, 4.0),
            ScenarioRecord("a", 20, 4, "ParSubtrees", 8.0, 6.0, 3.0, 4.0),
        ]
        stats = group_stats(records)
        assert [(s.algorithm, s.n, s.p, s.cap, s.count) for s in stats] == [
            ("MemoryBounded", 10, 2, 1.5, 1),
            ("ParSubtrees", 10, 2, None, 2),
            ("ParSubtrees", 20, 4, None, 1),
        ]
        cell = stats[1]
        assert cell.mean_makespan_ratio == pytest.approx((8 / 4 + 6 / 4) / 2)
        assert cell.max_memory_ratio == pytest.approx(3.0)

    def test_split_label(self):
        assert split_label("MemoryBounded@cap1.5") == ("MemoryBounded", 1.5)
        assert split_label("ParSubtrees") == ("ParSubtrees", None)

    def test_group_stats_rejects_failed_rows(self):
        with pytest.raises(ValueError, match="failed records"):
            group_stats(mixed_records())

    def test_pareto_front_columns_matches_reference(self, rng):
        for _ in range(25):
            mk = rng.uniform(1, 10, size=40)
            mem = rng.uniform(1, 10, size=40)
            points = [ParetoPoint(m, q, "x") for m, q in zip(mk, mem)]
            ref = pareto_front(points)
            idx = pareto_front_columns(mk, mem)
            got = [ParetoPoint(mk[i], mem[i], "x") for i in idx]
            assert got == ref

    def test_hypervolume_columns_matches_reference(self, rng):
        for _ in range(25):
            mk = rng.uniform(1, 10, size=30)
            mem = rng.uniform(1, 10, size=30)
            points = [ParetoPoint(m, q, "x") for m, q in zip(mk, mem)]
            ref_point = ParetoPoint(11.0, 11.0, "ref")
            a = hypervolume(points, ref_point)
            b = hypervolume_columns(mk, mem, ref_point)
            assert b == pytest.approx(a, rel=1e-12)

    def test_hypervolume_columns_rejects_bad_reference(self):
        with pytest.raises(ValueError, match="weakly worse"):
            hypervolume_columns(
                np.array([1.0, 5.0]), np.array([2.0, 1.0]), (4.0, 4.0)
            )


# ----------------------------------------------------------------------
# single-writer lock: one writer process per store directory
# ----------------------------------------------------------------------
class TestWriterLock:
    def test_second_process_fails_fast(self, tmp_path):
        d = str(tmp_path / "d.store")
        store = ColumnarStore(d)
        store.append(mixed_records()[:2])  # acquires the writer lock
        code = f"""
from repro.analysis.store import ColumnarStore
from repro.analysis.experiments import ScenarioRecord
store = ColumnarStore({d!r})
store.append([ScenarioRecord("x", 1, 2, "h", 1.0, 1.0, 1.0, 1.0)])
"""
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": _pythonpath()},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert b"already has a live writer" in proc.stderr
        assert f"pid {os.getpid()}" in proc.stderr.decode()
        # the loser changed nothing and the holder keeps appending
        assert store.count() == 2
        store.append(mixed_records()[2:3])
        store.close()

    def test_lock_released_allows_next_process(self, tmp_path):
        d = str(tmp_path / "d.store")
        store = ColumnarStore(d)
        store.append(mixed_records()[:2])
        store.close()
        code = f"""
from repro.analysis.store import ColumnarStore
from repro.analysis.experiments import ScenarioRecord
store = ColumnarStore({d!r})
store.append([ScenarioRecord("x", 1, 2, "h", 1.0, 1.0, 1.0, 1.0)])
store.close()
"""
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": _pythonpath()},
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        fresh = ColumnarStore(d)
        assert fresh.count() == 3

    def test_stale_dead_pid_lock_is_broken(self, tmp_path):
        d = str(tmp_path / "d.store")
        store = ColumnarStore(d)
        store.append(mixed_records()[:2])
        store.close()
        # a pid that existed and is now certainly gone
        ghost = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            timeout=120,
        )
        dead_pid = int(ghost.stdout)
        with open(os.path.join(d, ".writer.lock"), "w") as fh:
            fh.write(str(dead_pid))
        again = ColumnarStore(d)
        again.append(mixed_records()[2:3])  # breaks the stale lock
        assert again.count() == 3
        again.close()

    def test_same_process_stores_share_the_lock(self, tmp_path):
        # save_records(append=True) style: two live store objects of
        # one process serialize through a refcounted shared lock
        d = str(tmp_path / "d.store")
        a = ColumnarStore(d)
        a.append(mixed_records()[:2])
        b = ColumnarStore(d)
        b.append(mixed_records()[2:4])
        a.close()  # refcount drops to one: still locked
        assert os.path.exists(os.path.join(d, ".writer.lock"))
        b.close()
        assert not os.path.exists(os.path.join(d, ".writer.lock"))
        assert ColumnarStore(d).count() == 4

    def test_finalize_releases_the_lock(self, tmp_path):
        d = str(tmp_path / "d.store")
        store = ColumnarStore(d)
        store.append(mixed_records())
        store.finalize()
        assert not os.path.exists(os.path.join(d, ".writer.lock"))
