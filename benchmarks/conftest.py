"""Shared fixtures of the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or an
ablation of a design choice) and writes its artifact under
``benchmarks/results/``, so the numbers are inspectable after a
``pytest benchmarks/ --benchmark-only`` run, whose own timing output
measures the cost of the full experiment.

The data-set scale is controlled by ``REPRO_BENCH_SCALE``
(``tiny`` | ``small`` | ``medium``, default ``small`` -- the scale the
EXPERIMENTS.md numbers were produced with; use ``tiny`` for quick runs).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def bench_processors() -> tuple[int, ...]:
    """Processor sweep: the paper's five values, trimmed at tiny scale."""
    if bench_scale() == "tiny":
        return (2, 4, 8)
    return (2, 4, 8, 16, 32)


def paper_grid():
    """The paper's Section 6 grid: the four heuristics x the sweep."""
    from repro.analysis import Campaign
    from repro.parallel import HEURISTICS

    return Campaign(algorithms=tuple(HEURISTICS), processor_counts=bench_processors())


@pytest.fixture(scope="session")
def dataset():
    from repro.workloads import build_dataset

    return build_dataset(scale=bench_scale())


@pytest.fixture(scope="session")
def records(dataset):
    from repro.analysis import run_campaign

    return run_campaign(dataset, paper_grid())


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(artifact_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it for -s runs."""
    path = artifact_dir / name
    path.write_text(text + "\n")
    print(f"\n[artifact: {path}]\n{text}")
