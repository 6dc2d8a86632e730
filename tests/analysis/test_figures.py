"""Tests for the Figure 6/7/8 data series and rendering."""

import numpy as np
import pytest

from repro.analysis.store import ScenarioRecord
from repro.analysis.figures import figure_csv, figure_data, render_figure


def rec(tree, p, heuristic, makespan, memory):
    return ScenarioRecord(tree, 5, p, heuristic, makespan, memory, 10.0, 2.0)


@pytest.fixture
def records():
    rows = []
    for tree in ("a", "b"):
        rows += [
            rec(tree, 2, "ParSubtrees", 8.0, 20.0),
            rec(tree, 2, "ParInnerFirst", 4.0, 40.0),
            rec(tree, 2, "ParDeepestFirst", 3.0, 60.0),
        ]
    return rows


class TestFigureData:
    def test_figure6_ratios_to_bounds(self, records):
        data = {s.heuristic: s for s in figure_data(records, 6)}
        assert set(data) == {"ParSubtrees", "ParInnerFirst", "ParDeepestFirst"}
        np.testing.assert_allclose(data["ParSubtrees"].x, [4.0, 4.0])
        np.testing.assert_allclose(data["ParSubtrees"].y, [2.0, 2.0])

    def test_figure7_normalized_to_parsubtrees(self, records):
        data = {s.heuristic: s for s in figure_data(records, 7)}
        assert "ParSubtrees" not in data
        np.testing.assert_allclose(data["ParInnerFirst"].x, [0.5, 0.5])
        np.testing.assert_allclose(data["ParInnerFirst"].y, [2.0, 2.0])

    def test_figure8_normalized_to_innerfirst(self, records):
        data = {s.heuristic: s for s in figure_data(records, 8)}
        assert "ParInnerFirst" not in data
        np.testing.assert_allclose(data["ParDeepestFirst"].x, [0.75, 0.75])

    def test_unknown_figure(self, records):
        with pytest.raises(ValueError):
            figure_data(records, 9)

    def test_missing_reference(self, records):
        no_ref = [r for r in records if r.heuristic != "ParSubtrees"]
        with pytest.raises(ValueError, match="reference"):
            figure_data(no_ref, 7)

    def test_cross_statistics(self, records):
        series = figure_data(records, 6)[0]
        c = series.cross()
        assert c.x_p10 <= c.x_mean <= c.x_p90
        assert c.y_p10 <= c.y_mean <= c.y_p90


class TestRendering:
    def test_render_contains_marks_and_legend(self, records):
        text = render_figure(figure_data(records, 6), title="Figure 6")
        assert "Figure 6" in text
        assert "legend:" in text
        assert "ParSubtrees" in text

    def test_csv(self, records):
        csv = figure_csv(figure_data(records, 6))
        lines = csv.splitlines()
        assert lines[0] == "heuristic,makespan_ratio,memory_ratio"
        assert len(lines) == 1 + 6
