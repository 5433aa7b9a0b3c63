"""Unit tests for the ASCII sparkline."""

from repro.metrics.ascii_plot import sparkline


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

