"""Unit tests for the ASCII plotting helpers."""

import pytest

from repro.metrics.ascii_plot import bar_chart, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_values_monotone_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_values_mid_level(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_extremes_hit_bounds(self):
        line = sparkline([0, 100])
        assert line[0] == "▁" and line[-1] == "█"

    def test_nan_renders_as_space(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3) == "   "

    def test_single_point_renders_mid_level(self):
        line = sparkline([42.0])
        assert len(line) == 1
        assert line in "▁▂▃▄▅▆▇█"

    def test_single_nan(self):
        assert sparkline([float("nan")]) == " "

    def test_infinity_treated_as_missing(self):
        line = sparkline([1.0, float("inf"), 2.0])
        assert line[1] == " "
        assert line[0] != " " and line[2] != " "


class TestBarChart:
    def test_bars_scale_to_peak(self):
        chart = bar_chart(["a", "b"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_aligned(self):
        chart = bar_chart(["short", "a-very-long-label"], [1.0, 2.0])
        lines = chart.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_values_shown(self):
        chart = bar_chart(["x"], [3.25])
        assert "3.25" in chart

    def test_unit_suffix(self):
        assert "MB" in bar_chart(["x"], [7.0], unit="MB")

    def test_empty(self):
        assert bar_chart([], []) == ""

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0], width=0)

    def test_zero_values_empty_bars(self):
        chart = bar_chart(["a", "b"], [0.0, 0.0])
        assert "█" not in chart

    def test_single_bar_fills_the_width(self):
        chart = bar_chart(["only"], [2.5], width=8)
        assert chart.count("█") == 8

    def test_nan_value_gets_empty_bar(self):
        chart = bar_chart(["a", "b"], [float("nan"), 4.0], width=8)
        lines = chart.splitlines()
        assert "█" not in lines[0] and "nan" in lines[0]
        assert lines[1].count("█") == 8
