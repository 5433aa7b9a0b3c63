"""Metrics: Gini fairness, summary statistics, run-level collection, tables."""

from repro.metrics.ascii_plot import bar_chart, sparkline
from repro.metrics.collector import RunMetrics, collect_run_metrics
from repro.metrics.export import metrics_to_record, write_csv
from repro.metrics.gini import gini_coefficient, gini_pairwise, jain_index
from repro.metrics.report import print_table, render_table
from repro.metrics.stats import Summary, mean_or_nan, percent_change, ratio

__all__ = [
    "gini_coefficient",
    "gini_pairwise",
    "jain_index",
    "sparkline",
    "bar_chart",
    "metrics_to_record",
    "write_csv",
    "Summary",
    "mean_or_nan",
    "ratio",
    "percent_change",
    "RunMetrics",
    "collect_run_metrics",
    "render_table",
    "print_table",
]
