"""Tests for the EXPERIMENTS.md report generator."""

import pytest

from repro.analysis.campaign import Campaign, run_campaign
from repro.parallel import HEURISTICS
from repro.analysis.report import build_report
from repro.workloads.dataset import build_dataset


@pytest.fixture(scope="module")
def report():
    instances = build_dataset(scale="tiny")[:8]
    records = run_campaign(
        instances, Campaign(algorithms=tuple(HEURISTICS), processor_counts=(2,))
    )
    return build_report(records, instances), instances


class TestReport:
    def test_sections_present(self, report):
        text, _ = report
        for heading in (
            "# EXPERIMENTS",
            "## Data set",
            "## Table 1",
            "## Figure 6",
            "## Figure 7",
            "## Figure 8",
        ):
            assert heading in text

    def test_paper_rows_interleaved(self, report):
        text, _ = report
        assert "(paper) | 81.1 | 85.2 | 133.0" in text

    def test_measured_rows_for_all_heuristics(self, report):
        text, _ = report
        for name in (
            "ParSubtrees",
            "ParSubtreesOptim",
            "ParInnerFirst",
            "ParDeepestFirst",
        ):
            assert f"**{name}** (measured)" in text

    def test_dataset_size_reported(self, report):
        text, instances = report
        assert f"{len(instances)} assembly trees" in text
