"""Observability: span tracing, subsystem metrics, Perfetto export.

Zero-dependency instrumentation for the whole simulator (DESIGN.md §8):

* :mod:`repro.obs.tracer` — nested :class:`Span` s keyed on wall time
  *and* simulated time; :class:`NullTracer` is the disabled default.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges, and mergeable fixed-bucket log2 histograms.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSONL span export and
  the per-subsystem summary table.
* :mod:`repro.obs.runtime` — the process-global on/off switch and the
  one-branch hook helpers (:func:`span`, :func:`add`, :func:`observe`,
  :func:`gauge_set`) the hot paths call.
* :mod:`repro.obs.timeline` — the sim-clock-driven protocol-state
  sampler (DESIGN.md §9).
* :mod:`repro.obs.monitors` — online health monitors over the timeline
  with a machine-readable end-of-run verdict.
* :mod:`repro.obs.report` / :mod:`repro.obs.diff` — terminal + HTML run
  reports and threshold-based two-run comparison.

CLI faces: ``repro run --obs DIR``, ``repro report DIR``,
``repro compare DIR_A DIR_B``, and the ``repro trace`` verbs.
"""

from repro.obs.diff import (
    RULES,
    Comparison,
    ComparisonResult,
    MetricRule,
    compare_runs,
    render_comparison,
)
from repro.obs.export import (
    read_trace_events,
    span_to_event,
    summarize_events,
    write_perfetto_jsonl,
    write_strict_json,
)
from repro.obs.live import (
    MERGED_TRACE_NAME,
    PROFILE_NAME,
    STREAM_NAME,
    SamplingProfiler,
    TelemetryServer,
    TelemetryStream,
    load_top_view,
    merge_trace_files,
    read_folded,
    read_stream,
    render_flamegraph_svg,
    render_prometheus,
    render_top,
    top_functions,
    write_flamegraph,
    write_folded,
)
from repro.obs.metrics import (
    BUCKET_COUNT,
    MAX_EXP,
    MIN_EXP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_lower_edge,
    merge_snapshots,
    percentile,
    summarize,
)
from repro.obs.monitors import (
    EVENTS_NAME,
    SEVERITIES,
    VERDICT_NAME,
    ChainStallMonitor,
    CoverageMonitor,
    FairnessMonitor,
    IntervalDriftMonitor,
    Monitor,
    MonitorEvent,
    MonitorSuite,
    StakeConcentrationMonitor,
    StorageUnboundedMonitor,
    read_events,
    read_verdict,
    severity_rank,
)
from repro.obs.report import (
    REPORT_NAME,
    load_run,
    render_html_report,
    render_terminal_report,
    write_html_report,
)
from repro.obs.runtime import (
    METRICS_NAME,
    TRACE_NAME,
    ObsSession,
    active_session,
    add,
    attach_runtime,
    current_trace_context,
    disable,
    enable,
    gauge_set,
    is_enabled,
    observe,
    remote_span,
    set_sim_clock,
    span,
    timeline_tick,
    traced_solver,
)
from repro.obs.timeline import (
    TIMELINE_NAME,
    RuntimeProbe,
    Timeline,
    read_timeline,
)
from repro.obs.tracer import NULL_SPAN, NullTracer, Span, TraceContext, Tracer

__all__ = [
    "MERGED_TRACE_NAME",
    "PROFILE_NAME",
    "STREAM_NAME",
    "SamplingProfiler",
    "TelemetryServer",
    "TelemetryStream",
    "TraceContext",
    "current_trace_context",
    "load_top_view",
    "merge_trace_files",
    "read_folded",
    "read_stream",
    "remote_span",
    "render_flamegraph_svg",
    "render_prometheus",
    "render_top",
    "top_functions",
    "write_flamegraph",
    "write_folded",
    "read_trace_events",
    "span_to_event",
    "summarize_events",
    "write_perfetto_jsonl",
    "write_strict_json",
    "BUCKET_COUNT",
    "MAX_EXP",
    "MIN_EXP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_index",
    "bucket_lower_edge",
    "merge_snapshots",
    "percentile",
    "summarize",
    "METRICS_NAME",
    "TRACE_NAME",
    "ObsSession",
    "active_session",
    "add",
    "attach_runtime",
    "disable",
    "enable",
    "gauge_set",
    "is_enabled",
    "observe",
    "set_sim_clock",
    "span",
    "timeline_tick",
    "traced_solver",
    "NULL_SPAN",
    "NullTracer",
    "Span",
    "Tracer",
    "TIMELINE_NAME",
    "RuntimeProbe",
    "Timeline",
    "read_timeline",
    "EVENTS_NAME",
    "SEVERITIES",
    "VERDICT_NAME",
    "ChainStallMonitor",
    "CoverageMonitor",
    "FairnessMonitor",
    "IntervalDriftMonitor",
    "Monitor",
    "MonitorEvent",
    "MonitorSuite",
    "StakeConcentrationMonitor",
    "StorageUnboundedMonitor",
    "read_events",
    "read_verdict",
    "severity_rank",
    "REPORT_NAME",
    "load_run",
    "render_html_report",
    "render_terminal_report",
    "write_html_report",
    "RULES",
    "Comparison",
    "ComparisonResult",
    "MetricRule",
    "compare_runs",
    "render_comparison",
]
