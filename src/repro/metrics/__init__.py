"""Metrics: Gini fairness, summary statistics, run-level collection, tables."""

from repro.metrics.ascii_plot import sparkline
from repro.metrics.collector import RunMetrics, collect_run_metrics
from repro.metrics.export import metrics_to_record, write_csv
from repro.metrics.gini import gini_coefficient, gini_pairwise
from repro.metrics.report import print_table, render_table
from repro.metrics.stats import Summary, mean_or_nan

__all__ = [
    "gini_coefficient",
    "gini_pairwise",
    "sparkline",
    "metrics_to_record",
    "write_csv",
    "Summary",
    "mean_or_nan",
    "RunMetrics",
    "collect_run_metrics",
    "render_table",
    "print_table",
]
