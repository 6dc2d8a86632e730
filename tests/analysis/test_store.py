"""JSONL record files, their one scanner, and the analysis columns.

Every read of a checkpoint -- campaign resume,
:meth:`JsonlStore.iter_records`, :meth:`JsonlStore.recover`,
:meth:`JsonlStore.columns` -- goes through one scanner, so each must
reject the same corrupt lines with the same ``ValueError``, and each
must name the removal when pointed at a retired columnar store
directory. On top of that, the vectorised analysis paths (table 1,
groupby, figures) must agree with their per-record reference loops on
the same columns.
"""

from __future__ import annotations

import dataclasses
import filecmp
import json
import os
from collections import defaultdict

import numpy as np
import pytest

from repro.analysis.campaign import Campaign, run_campaign
from repro.analysis.figures import FigureSeries, figure_data
from repro.analysis.metrics import (
    compute_table1_stats,
    compute_table1_stats_reference,
    group_stats,
    split_label,
)
from repro.analysis.store import (
    FailedRecord,
    JsonlStore,
    RecordColumns,
    ScenarioRecord,
    open_store,
)
from repro.cli import main
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


def measured(records):
    return [r for r in records if not isinstance(r, FailedRecord)]


def assert_same_columns(got: RecordColumns, want: RecordColumns) -> None:
    """Equal row for row in every column (NaN equals NaN)."""
    assert len(got) == len(want)
    for name in (f.name for f in dataclasses.fields(RecordColumns)):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
    def test_round_trip_preserves_failed_interleaving(self, tmp_path):
        """A JSONL file keeps FailedRecord rows where they were in the
        stream, and its columns mark them in the same rows."""
        records = mixed_records()
        store = JsonlStore(str(tmp_path / "mixed.jsonl"))
        store.reset()
        store.append(records)
        assert list(store.recover()) == records
        cols = store.columns()
        assert len(cols) == len(records)
        assert_same_columns(cols, RecordColumns.from_records(records))
        assert cols.failed.tolist() == [isinstance(r, FailedRecord) for r in records]
        assert_same_columns(
            store.columns(include_failed=False),
            RecordColumns.from_records(measured(records)),
        )

    def test_measured_drops_failed_rows(self):
        cols = RecordColumns.from_records(mixed_records())
        good = cols.measured()
        assert len(good) == 4
        assert not good.failed.any()
        assert np.isfinite(good.makespan).all()

    def test_ratios_match_scalar_properties(self):
        cols = RecordColumns.from_records(mixed_records()).measured()
        for i, r in enumerate(measured(mixed_records())):
            assert cols.makespan_ratio()[i] == r.makespan_ratio
            assert cols.memory_ratio()[i] == r.memory_ratio

    def test_ratio_degenerate_baseline_is_inf(self):
        cols = RecordColumns.from_records(
            [ScenarioRecord("t", 5, 2, "A", 1.0, 2.0, 0.0, 0.0)]
        )
        assert cols.memory_ratio()[0] == np.inf
        assert cols.makespan_ratio()[0] == np.inf

    def test_of_passes_columns_through(self):
        cols = RecordColumns.from_records(mixed_records())
        assert RecordColumns.of(cols) is cols
        assert_same_columns(RecordColumns.of(mixed_records()), cols)

    def test_take(self):
        cols = RecordColumns.from_records(mixed_records())
        assert_same_columns(cols.take(np.arange(len(cols))), cols)
        assert len(cols.take(np.arange(0))) == 0

    def test_take_boolean_mask(self):
        records = mixed_records()
        cols = RecordColumns.from_records(records)
        assert_same_columns(
            cols.take(~cols.failed), RecordColumns.from_records(measured(records))
        )
        assert_same_columns(
            cols.take(cols.failed),
            RecordColumns.from_records(
                [r for r in records if isinstance(r, FailedRecord)]
            ),
        )

    def test_empty_stream(self):
        cols = RecordColumns.from_records([])
        assert len(cols) == 0
        assert len(cols.measured()) == 0
        for name in ("tree", "heuristic", "error"):
            assert getattr(cols, name).dtype.itemsize > 0  # never '<U0'


# ----------------------------------------------------------------------
# JsonlStore: the campaign checkpoint
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

    def test_append_writes_one_json_line_per_record(self, tmp_path):
        """The checkpoint format, whatever the batching of the appends:
        ``json.dumps`` of the record's fields, one line each."""
        records = mixed_records()
        want = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in records)
        a = tmp_path / "a.jsonl"
        JsonlStore(str(a)).append(records)
        b = tmp_path / "b.jsonl"
        store = JsonlStore(str(b))
        for r in records:
            store.append([r])
        assert a.read_text() == want
        assert filecmp.cmp(str(a), str(b), shallow=False)

    def test_recover_drops_torn_tail_iter_records_is_lenient(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JsonlStore(str(path))
        store.append(mixed_records()[:2])
        with open(path, "ab") as fh:
            fh.write(b'{"tree": "t9", "heuri')  # torn crash residue
        assert len(list(store.recover())) == 2  # strict: residue dropped
        # a *parseable* unterminated last line is a hand-written file,
        # not crash residue: iter_records keeps it
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
        # ...but a whole JSON value that is not a record is corruption
        with open(path, "ab") as fh:
            fh.write(b"\n[1, 2]")
        assert len(list(store.recover())) == 3
        with pytest.raises(ValueError, match="malformed"):
            list(store.iter_records())

    def test_truncate(self, tmp_path):
        store = JsonlStore(str(tmp_path / "r.jsonl"))
        records = mixed_records()
        store.append(records)
        store.truncate(2)
        assert list(store.recover()) == records[:2]
        with pytest.raises(ValueError, match="only 2 present"):
            store.truncate(5)

    def test_truncate_drops_crash_residue(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        records = mixed_records()
        JsonlStore(str(ref)).append(records)
        path = tmp_path / "r.jsonl"
        store = JsonlStore(str(path))
        store.append(records)
        with open(path, "ab") as fh:
            fh.write(b'{"tree": "t9", "heuri')
        store.truncate(len(records))
        assert filecmp.cmp(str(ref), str(path), shallow=False)

    def test_truncate_to_zero(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = JsonlStore(str(path))
        store.append(mixed_records())
        store.truncate(0)
        assert path.read_bytes() == b""
        assert list(store.recover()) == []

    def test_exists_and_reset(self, tmp_path):
        store = JsonlStore(str(tmp_path / "r.jsonl"))
        assert not store.exists()
        store.reset()
        assert store.exists()
        assert list(store.recover()) == []
        store.append(mixed_records())
        store.reset()  # truncates previous content
        assert list(store.recover()) == []

    def test_columns_match_records(self, tmp_path):
        records = mixed_records()
        store = JsonlStore(str(tmp_path / "r.jsonl"))
        store.append(records)
        want = RecordColumns.from_records(records)
        assert_same_columns(store.columns(include_failed=True), want)
        good = store.columns(include_failed=False)
        assert len(good) == 4
        assert_same_columns(good, want.measured())

    def test_open_store_is_the_jsonl_store(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = open_store(path)
        assert isinstance(store, JsonlStore)
        assert store.path == path
        with pytest.raises(ValueError, match="jsonl"):
            open_store(str(tmp_path / "r.csv"))


# ----------------------------------------------------------------------
# one scanner: every JSONL entry point rejects the same corrupt lines
# ----------------------------------------------------------------------
_READERS = {
    "run_campaign-resume": lambda path, instances, campaign: run_campaign(
        instances, campaign, checkpoint=path, resume=True
    ),
    "JsonlStore.iter_records": lambda path, *_: list(open_store(path).iter_records()),
    "JsonlStore.columns": lambda path, *_: JsonlStore(path).columns(),
    "JsonlStore.recover": lambda path, *_: list(JsonlStore(path).recover()),
    "cli-table1-records": lambda path, *_: _exit_2_as_value_error(
        ["table1", "--records", path]
    ),
}
# The report also reads the file through the scanner, but its figures
# need every heuristic of the paper's grid: it joins the corrupt-line
# check only (the reference stream has two heuristics).
_CORRUPT_LINE_READERS = {
    **_READERS,
    "cli-report-records": lambda path, *_: _exit_2_as_value_error(
        ["report", "--scale", "tiny", "--records", path]
    ),
}

_MISSING_FIELD = (
    '{"tree": "t0", "n": 25, "p": 2, "heuristic": "ParSubtrees", '
    '"makespan": 1.0, "memory": 1.0, "memory_lb": 1.0}'
)


@pytest.mark.parametrize(
    "bad",
    ["{broken", '{"foo": 1}', "[1, 2]", _MISSING_FIELD],
    ids=["bad-json", "unknown-key", "not-an-object", "missing-field"],
)
@pytest.mark.parametrize("reader", sorted(_CORRUPT_LINE_READERS))
def test_malformed_complete_line_raises(
    reader, bad, instances, campaign, reference, tmp_path
):
    """A complete line that is not a record (bad JSON, not an object,
    unknown or missing fields) cannot be crash residue."""
    _, ref_path = reference
    first, second = ref_path.read_bytes().splitlines(keepends=True)[:2]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(first + bad.encode() + b"\n" + second)
    with pytest.raises(ValueError, match="malformed record on a complete line.*corrupt"):
        _CORRUPT_LINE_READERS[reader](str(path), instances, campaign)


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_torn_final_line_is_dropped(
    reader, instances, campaign, reference, tmp_path
):
    """An unterminated final line is crash residue: every reader drops
    it (a CLI reader prints what it prints for the clean file); only the
    resuming campaign rewrites the file (healing it)."""
    records, ref_path = reference
    blob = ref_path.read_bytes()
    torn = blob + b'{"tree": "t0", "heu'
    path = tmp_path / "torn.jsonl"
    path.write_bytes(torn)
    got = _READERS[reader](str(path), instances, campaign)
    if isinstance(got, RecordColumns):
        assert_same_columns(got, RecordColumns.from_records(records))
    elif isinstance(got, str):
        assert got == _READERS[reader](str(ref_path), instances, campaign)
    else:
        assert got == records
    healed = reader == "run_campaign-resume"
    assert path.read_bytes() == (blob if healed else torn)


# ----------------------------------------------------------------------
# JsonlStore.iter_records
# ----------------------------------------------------------------------
class TestExperimentsDispatch:
    def test_iter_records_streams_jsonl(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        JsonlStore(path).append(mixed_records())
        store = open_store(path)
        assert list(store.iter_records()) == measured(mixed_records())
        assert list(store.iter_records(include_failed=True)) == mixed_records()


# ----------------------------------------------------------------------
# retired columnar store directories: one clear error everywhere
# ----------------------------------------------------------------------
_DIR_ENTRY_POINTS = {
    "open_store": lambda d, instances, campaign: open_store(d),
    "run_campaign": lambda d, instances, campaign: run_campaign(
        instances, campaign, checkpoint=d
    ),
    "cli-table1-records": lambda d, *_: _exit_2_as_value_error(["table1", "--records", d]),
    "cli-report-records": lambda d, *_: _exit_2_as_value_error(
        ["report", "--scale", "tiny", "--records", d]
    ),
    "cli-campaign-resume": lambda d, *_: _exit_2_as_value_error(
        ["campaign", "--scale", "tiny", "--limit", "1", "--algos",
         "ParSubtrees", "--processors", "2", "--resume", d]
    ),
}


def _exit_2_as_value_error(argv) -> str:
    """Run a grid subcommand, which reports a bad checkpoint or records
    file as its last stderr line and exit code 2; raise that line as
    ``ValueError``. On success, return what it printed to stdout."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        raise ValueError(err.getvalue().splitlines()[-1])
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("entry", sorted(_DIR_ENTRY_POINTS))
def test_retired_store_directory_is_a_clear_error(
    entry, instances, campaign, tmp_path
):
    d = tmp_path / "old.store"
    d.mkdir()
    (d / "manifest.json").write_text(
        '{"format": "repro-store", "version": 1, "backend": "columnar"}'
    )
    with pytest.raises(ValueError, match="columnar record stores were removed.*repro pack"):
        _DIR_ENTRY_POINTS[entry](str(d), instances, campaign)
    assert os.listdir(d) == ["manifest.json"]  # untouched


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
            want = figure_data_loop(records, which)
            for got in (figure_data(cols, which), figure_data(records, which)):
                assert [s.heuristic for s in got] == [s.heuristic for s in want]
                for sa, sb in zip(want, got):
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


def figure_data_loop(records, which):
    """The per-record loop of Figures 6-8 (the oracle of
    :func:`figure_data`): scenario by scenario in first-appearance
    order, each record normalised by the lower bounds (Figure 6) or by
    the scenario's first ParSubtrees / ParInnerFirst record."""
    reference = {6: None, 7: "ParSubtrees", 8: "ParInnerFirst"}[which]
    groups = defaultdict(list)
    for r in records:
        groups[(r.tree, r.p)].append(r)
    series: dict[str, tuple[list[float], list[float]]] = {}
    for recs in groups.values():
        if reference is not None:
            ref = next((r for r in recs if r.heuristic == reference), None)
            if ref is None:
                raise ValueError(f"records lack reference heuristic {reference}")
        for r in recs:
            if r.heuristic == reference:
                continue
            if reference is None:
                x, y = r.makespan_ratio, r.memory_ratio
            else:
                x, y = r.makespan / ref.makespan, r.memory / ref.memory
            xs, ys = series.setdefault(r.heuristic, ([], []))
            xs.append(x)
            ys.append(y)
    return [
        FigureSeries(name, np.asarray(xs), np.asarray(ys))
        for name, (xs, ys) in series.items()
    ]
