"""Tests of the benchmark itself: metric names and units, spans, checks."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, verify, workloads
from perfbench.run import END_TO_END, WORKLOAD_NAMES, result_line
from perfbench.spans import Tracer
from repro import registry
from repro.analysis.campaign import Campaign, run_campaign
from repro.sequential.postorder import optimal_postorder
from repro.workloads.dataset import TreeInstance
from repro.workloads.synthetic import random_weighted_tree

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _instances(k: int = 2, n: int = 40) -> list[TreeInstance]:
    rng = np.random.default_rng(7)
    return [
        TreeInstance(
            name=f"t{i}", tree=random_weighted_tree(n, rng), matrix_name="t",
            ordering="none", amalgamation=1,
        )
        for i in range(k)
    ]


def test_benchmark_json_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOAD_NAMES
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_result_line_emits_every_metric_with_its_unit():
    line = json.loads(result_line({n: 1.5 for n in END_TO_END}, END_TO_END, 10, 0))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == END_TO_END
    assert line["correct"] is True
    with pytest.raises(KeyError):
        result_line({"setup_s": 1.0}, END_TO_END, 10, 0)


def test_traced_campaign_reports_every_per_layer_metric(tmp_path):
    path = tmp_path / "c.jsonl"
    campaign = Campaign(
        algorithms=("ParSubtrees", "ParDeepestFirst", "MemoryBounded"),
        processor_counts=(2, 4),
    )
    tracer = Tracer(enabled=True)
    patches = layers.install(tracer)
    try:
        run_campaign(_instances(), campaign, checkpoint=str(path))
    finally:
        patches.restore()
    values = layers.per_layer(tracer, jobs_done=1)
    assert set(values) | {"trace.overhead_frac"} == set(layers.PER_LAYER)
    assert values["prepare.calls"] == 2
    assert values["subtrees.calls"] == 4  # ParSubtrees x 2 p x 2 trees
    assert values["subtrees.ParSubtrees.busy_s"] == values["subtrees.busy_s"] > 0
    assert (values["sweep.calls"], values["sweep.scenarios"]) == (2, 8)
    assert values["sweep.buffer_bytes"] == layers.BUFFER_BYTES_PER_CELL * 4 * 40
    assert values["simulate.calls"] == 12
    assert values["store.appends"] == 2 and values["store.fsyncs"] >= 2
    assert values["store.bytes_written"] == os.path.getsize(path)
    assert values["ipc.run_s"] == values["http.requests"] == 0
    assert all(s.self_s >= 0 for s in tracer.spans)
    assert not hasattr(registry.run, "__wrapped__")  # originals restored


def test_self_time_excludes_nested_spans():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    (outer,), (inner,) = tracer.named("outer"), tracer.named("inner")
    assert inner.parent == outer.sid
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)
    assert Tracer().span("off").__enter__() is None


def test_relabel_keeps_the_instance():
    tree = random_weighted_tree(300, np.random.default_rng(3))
    other = workloads.relabel(tree, np.random.default_rng(4))
    assert not np.array_equal(other.parent, tree.parent)
    assert optimal_postorder(other).peak_memory == optimal_postorder(tree).peak_memory
    assert other.w.sum() == tree.w.sum()


@pytest.fixture
def stream(tmp_path) -> bytes:
    path = tmp_path / "c.jsonl"
    campaign = Campaign(algorithms=("ParDeepestFirst",), processor_counts=(2, 4))
    run_campaign(_instances(), campaign, checkpoint=str(path))
    return path.read_bytes()


def test_clean_stream_verifies(stream):
    assert verify.check_stream(stream, 4, verify.digest(stream)) == (0, [])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.replace(b'"makespan": ', b'"makespan": -', 1),  # below its bound
        lambda d: d[:-5],  # torn final record
        lambda d: d.split(b"\n", 1)[1],  # a record missing
        lambda d: b"{not json}\n" + d.split(b"\n", 1)[1],  # malformed record
        lambda d: b'{"failed": true}\n' + d.split(b"\n", 1)[1],  # quarantined
    ],
    ids=["below-bound", "torn", "missing", "malformed", "quarantined"],
)
def test_corrupted_stream_is_counted_failed(stream, corrupt):
    assert verify.check_stream(corrupt(stream), 4)[0] == 1
    # against the clean stream's digest, every scenario fails
    assert verify.check_stream(corrupt(stream), 4, verify.digest(stream))[0] == 4


def test_workload_counts_a_changed_stream_as_failed(stream):
    wl = workloads.Grid1e5(seed=1, workdir=".", tracer=Tracer())
    wl.expected, wl.pinned = 4, None
    phase = workloads.Phase()
    wl._check(phase, stream, None)  # the first pass is the run's reference
    wl._check(phase, stream.replace(b"t0", b"t9", 1), None)
    assert (phase.scenarios, phase.failed) == (8, 4)
