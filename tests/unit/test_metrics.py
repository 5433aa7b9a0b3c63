"""Unit tests for metrics: Gini, stats, collection, report rendering."""

import math

import numpy as np
import pytest

from repro.metrics.collector import collect_run_metrics
from repro.metrics.gini import gini_coefficient, gini_pairwise
from repro.metrics.report import format_cell, render_table
from repro.metrics.stats import Summary, mean_or_nan
from repro.simnet.trace import TransmissionTrace


class TestGini:
    def test_perfect_equality_is_zero(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_total_inequality_approaches_limit(self):
        # One node holds everything: Gini = (n−1)/n.
        assert gini_coefficient([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_known_value(self):
        # [1, 3]: Σ|diff| = 4, denominator 2·2·4 = 16 → 0.25.
        assert gini_coefficient([1, 3]) == pytest.approx(0.25)

    def test_matches_pairwise_reference(self, rng):
        for _ in range(10):
            values = rng.uniform(0, 100, size=rng.integers(2, 30))
            assert gini_coefficient(values) == pytest.approx(gini_pairwise(values))

    def test_scale_invariant(self):
        values = [1, 5, 9, 2]
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient([v * 7 for v in values])
        )

    def test_all_zero_is_zero(self):
        assert gini_coefficient([0, 0, 0]) == 0.0

    def test_single_value(self):
        assert gini_coefficient([42]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1, 5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([])

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            values = rng.uniform(0, 1000, size=15)
            assert 0.0 <= gini_coefficient(values) < 1.0


class TestStats:
    def test_summary_of_values(self):
        summary = Summary.of([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0

    def test_summary_empty(self):
        summary = Summary.of([])
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert str(summary) == "n=0"

    def test_summary_str(self):
        assert "mean=" in str(Summary.of([1.0]))

    def test_summary_delegates_to_obs_summarize(self):
        # Summary.of and the obs-layer helper must be the same math —
        # reports computed either way have to agree.
        from repro.obs.metrics import percentile, summarize

        values = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0]
        summary = Summary.of(values)
        stats = summarize(values)
        assert summary.count == stats["count"]
        assert summary.mean == pytest.approx(stats["mean"])
        assert summary.std == pytest.approx(stats["std"])
        assert summary.median == pytest.approx(stats["median"])
        assert summary.p95 == pytest.approx(stats["p95"])
        assert summary.p95 == pytest.approx(percentile(values, 95.0))
        assert (summary.minimum, summary.maximum) == (stats["min"], stats["max"])

    def test_mean_or_nan(self):
        assert mean_or_nan([2, 4]) == 3.0
        assert math.isnan(mean_or_nan([]))


class TestRunMetrics:
    def make_metrics(self):
        trace = TransmissionTrace()
        trace.record_hop(0, 1, 2_000_000, "data_response")
        trace.record_hop(1, 2, 1_000_000, "block_broadcast")
        return collect_run_metrics(
            node_count=3,
            duration_seconds=600.0,
            trace=trace,
            storage_used=[10, 12, 11],
            delivery_times=[0.5, 1.5, 0.0],
            failed_requests=1,
            block_timestamps=[0.0, 60.0, 130.0],
            blocks_mined={0: 1, 2: 1},
            recovery_durations=[2.0],
            data_items_produced=5,
        )

    def test_average_node_megabytes(self):
        metrics = self.make_metrics()
        # Total hop bytes 3 MB, each hop billed at both ends → 6 MB over 3.
        assert metrics.average_node_megabytes() == pytest.approx(2.0)

    def test_total_megabytes(self):
        assert self.make_metrics().total_megabytes() == pytest.approx(3.0)

    def test_gini(self):
        metrics = self.make_metrics()
        assert metrics.storage_gini() == pytest.approx(gini_coefficient([10, 12, 11]))

    def test_delivery(self):
        metrics = self.make_metrics()
        assert metrics.average_delivery_time() == pytest.approx(2.0 / 3.0)
        assert metrics.delivery_summary().count == 3

    def test_block_intervals(self):
        metrics = self.make_metrics()
        assert metrics.block_intervals == [60.0, 70.0]
        assert metrics.mean_block_interval() == pytest.approx(65.0)
        assert metrics.chain_height() == 2

    def test_recovery(self):
        assert self.make_metrics().mean_recovery_duration() == 2.0


class TestReport:
    def test_format_cell(self):
        assert format_cell("x") == "x"
        assert format_cell(3) == "3"
        assert format_cell(3.14159, precision=3) == "3.14"
        assert format_cell(float("nan")) == "nan"

    def test_render_table_aligns(self):
        table = render_table(
            "Title", ["col_a", "b"], [[1, 2.5], ["long-value", 3]]
        )
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "col_a" in lines[2]
        assert len({len(line) for line in lines[3:]}) == 1  # aligned rows

    def test_render_table_justifies_text_left_and_numbers_right(self):
        table = render_table(
            "Claims",
            ["claim", "value", "holds"],
            [["Gini <= 0.057", 0.042, True], ["energy saving", 69.7, False], ["n", 5, "yes"]],
        )
        rows = table.splitlines()[4:]
        assert rows == [
            "Gini <= 0.057  0.042  True ",
            "energy saving   69.7  False",
            "n                  5  yes  ",
        ]

    def test_render_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table("t", ["a"], [[1, 2]])
