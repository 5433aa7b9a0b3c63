"""Render one run's observability directory as terminal text and HTML.

``repro report DIR`` reads the artefacts a ``--obs DIR`` run exported —
``timeline.jsonl``, ``events.jsonl``, ``verdict.json``, ``metrics.json``
— and renders them two ways:

* a terminal report: the verdict, a per-monitor table, sparklines of the
  timeline series (via :mod:`repro.metrics.ascii_plot`), and summary
  statistics per series;
* a self-contained single-file HTML report (inline SVG line charts, no
  external assets) written next to the inputs as ``report.html``.

Both views are pure functions of the files on disk; nothing here touches
live observability state.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import json

from repro.metrics.ascii_plot import sparkline
from repro.metrics.report import render_table
from repro.obs.metrics import summarize
from repro.obs.monitors import (
    EVENTS_NAME,
    VERDICT_NAME,
    read_events,
    read_verdict,
)
from repro.obs.timeline import TIMELINE_NAME, read_timeline

PathLike = Union[str, Path]

REPORT_NAME = "report.html"

#: Timeline series shown in reports, in display order, with captions.
SERIES = [
    ("height", "chain height"),
    ("interval_ewma", "block interval EWMA (s)"),
    ("interval_ratio", "interval EWMA / t0"),
    ("fairness_max", "max fairness degree f_i"),
    ("fairness_margin_min", "min storage margin (slots)"),
    ("saturated_nodes", "saturated nodes"),
    ("storage_gini", "storage Gini"),
    ("stake_topk_share", "top-k stake share"),
    ("coverage_recent", "recent-block coverage"),
    ("queue_depth", "engine queue depth"),
    ("mempool_depth", "mempool depth (max node)"),
]

#: Name of the counter carrying the tracer's dropped-span total.
SPANS_DROPPED_COUNTER = "obs.spans_dropped"


def _spans_dropped(metrics: Optional[Dict[str, Any]]) -> int:
    """Dropped-span total from a loaded metrics snapshot (0 when absent)."""
    if not metrics:
        return 0
    instrument = metrics.get("instruments", {}).get(SPANS_DROPPED_COUNTER)
    if not instrument or instrument.get("type") != "counter":
        return 0
    return int(instrument.get("value", 0))


def _series_values(
    samples: Sequence[Dict[str, Any]], key: str
) -> List[float]:
    """The series as floats, JSON nulls back to NaN."""
    values = []
    for sample in samples:
        value = sample.get(key)
        values.append(math.nan if value is None else float(value))
    return values


def load_run(directory: PathLike) -> Dict[str, Any]:
    """Load a run's observability artefacts (timeline is mandatory).

    Returns ``{"directory", "header", "samples", "events", "verdict"}``;
    events/verdict are optional (None when the run had no monitors).
    """
    base = Path(directory)
    timeline_path = base / TIMELINE_NAME
    if not timeline_path.exists():
        raise FileNotFoundError(
            f"{timeline_path} not found — was the run made with --obs "
            f"(which records the protocol timeline)?"
        )
    header, samples = read_timeline(timeline_path)
    events = (
        read_events(base / EVENTS_NAME) if (base / EVENTS_NAME).exists() else None
    )
    verdict = (
        read_verdict(base / VERDICT_NAME)
        if (base / VERDICT_NAME).exists()
        else None
    )
    metrics = None
    metrics_path = base / "metrics.json"
    if metrics_path.exists():
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    return {
        "directory": base,
        "header": header,
        "samples": samples,
        "events": events,
        "verdict": verdict,
        "metrics": metrics,
    }


# -- terminal ---------------------------------------------------------------------------


def render_terminal_report(run: Dict[str, Any]) -> str:
    """The full terminal report for one loaded run."""
    samples = run["samples"]
    verdict = run["verdict"]
    events = run["events"]
    sections: List[str] = [f"run: {run['directory']}"]

    dropped = _spans_dropped(run.get("metrics"))
    if dropped:
        sections.append(
            f"WARNING: {dropped} span(s) dropped at the tracer's max_spans "
            "cap — the exported trace is truncated; raise max_spans or "
            "shorten the window"
        )

    if verdict is not None:
        sections.append(
            f"verdict: {verdict['status'].upper()} "
            f"({verdict.get('alerts', 0)} alert(s), "
            f"{verdict.get('events_total', 0)} event(s))"
        )
        rows = [
            [
                name,
                entry.get("worst") or "-",
                entry.get("current_level", "-"),
                entry.get("events", 0),
            ]
            for name, entry in sorted(verdict.get("by_monitor", {}).items())
        ]
        if rows:
            sections.append(
                render_table(
                    "monitors", ["monitor", "worst", "now", "events"], rows
                )
            )

    if events:
        rows = [
            [
                f"{event.get('time', 0.0):.0f}s",
                event.get("monitor", "?"),
                event.get("severity", "?"),
                event.get("message", ""),
            ]
            for event in events
        ]
        sections.append(
            render_table("events", ["t", "monitor", "severity", "message"], rows)
        )

    if samples:
        spark_rows = []
        stat_rows = []
        for key, caption in SERIES:
            values = _series_values(samples, key)
            finite = [v for v in values if math.isfinite(v)]
            if not finite:
                continue
            spark_rows.append([caption, sparkline(values), f"{finite[-1]:.4g}"])
            stats = summarize(finite)
            stat_rows.append(
                [
                    caption,
                    stats["min"],
                    stats["mean"],
                    stats["p95"],
                    stats["max"],
                ]
            )
        times = _series_values(samples, "t")
        sections.append(
            render_table(
                f"timeline ({len(samples)} samples, "
                f"t={times[0]:.0f}s → {times[-1]:.0f}s)",
                ["series", "trend", "last"],
                spark_rows,
            )
        )
        sections.append(
            render_table(
                "series statistics",
                ["series", "min", "mean", "p95", "max"],
                stat_rows,
            )
        )
    else:
        sections.append("timeline: no samples recorded")

    return "\n\n".join(sections)


# -- HTML ------------------------------------------------------------------------------

_SEVERITY_COLOURS = {
    "healthy": "#2e7d32",
    "info": "#2e7d32",
    "warning": "#ef6c00",
    "critical": "#c62828",
}


def _svg_line_chart(
    times: Sequence[float],
    values: Sequence[float],
    caption: str,
    width: int = 640,
    height: int = 120,
) -> str:
    """A minimal inline SVG polyline; NaN gaps split the line."""
    pad = 6
    finite = [
        (t, v)
        for t, v in zip(times, values)
        if math.isfinite(t) and math.isfinite(v)
    ]
    if not finite:
        return ""
    t_low, t_high = finite[0][0], finite[-1][0]
    v_low = min(v for _, v in finite)
    v_high = max(v for _, v in finite)
    t_span = (t_high - t_low) or 1.0
    v_span = (v_high - v_low) or 1.0

    def x(t: float) -> float:
        return pad + (t - t_low) / t_span * (width - 2 * pad)

    def y(v: float) -> float:
        return height - pad - (v - v_low) / v_span * (height - 2 * pad)

    segments: List[List[str]] = [[]]
    for t, v in zip(times, values):
        if math.isfinite(t) and math.isfinite(v):
            segments[-1].append(f"{x(t):.1f},{y(v):.1f}")
        elif segments[-1]:
            segments.append([])
    polylines = "".join(
        f'<polyline fill="none" stroke="#1565c0" stroke-width="1.5" '
        f'points="{" ".join(points)}"/>'
        for points in segments
        if len(points) >= 2
    )
    dots = (
        ""
        if polylines
        else "".join(
            f'<circle cx="{x(t):.1f}" cy="{y(v):.1f}" r="2" fill="#1565c0"/>'
            for t, v in finite
        )
    )
    return (
        f"<figure><figcaption>{html.escape(caption)} "
        f"<small>[{v_low:.4g} … {v_high:.4g}]</small></figcaption>"
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" style="background:#fafafa;border:1px solid #ddd">'
        f"{polylines}{dots}</svg></figure>"
    )


def render_html_report(run: Dict[str, Any]) -> str:
    """A self-contained HTML page for one loaded run."""
    samples = run["samples"]
    verdict = run["verdict"]
    events = run["events"]
    times = _series_values(samples, "t") if samples else []

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>repro report — {html.escape(str(run['directory']))}</title>",
        "<style>body{font-family:sans-serif;max-width:720px;margin:2em auto}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:4px 8px;text-align:left}figure{margin:1.2em 0}"
        "figcaption{font-weight:bold;margin-bottom:4px}</style>",
        "</head><body>",
        f"<h1>repro report</h1><p><code>{html.escape(str(run['directory']))}"
        "</code></p>",
    ]

    dropped = _spans_dropped(run.get("metrics"))
    if dropped:
        parts.append(
            f'<p style="color:#c62828"><strong>Warning:</strong> {dropped} '
            "span(s) dropped at the tracer's max_spans cap — the exported "
            "trace is truncated.</p>"
        )

    if verdict is not None:
        colour = _SEVERITY_COLOURS.get(verdict["status"], "#555")
        parts.append(
            f'<h2>Verdict: <span style="color:{colour}">'
            f"{html.escape(verdict['status'].upper())}</span></h2>"
        )
        parts.append("<table><tr><th>monitor</th><th>worst</th><th>now</th>"
                     "<th>events</th></tr>")
        for name, entry in sorted(verdict.get("by_monitor", {}).items()):
            parts.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{html.escape(entry.get('worst') or '-')}</td>"
                f"<td>{html.escape(entry.get('current_level', '-'))}</td>"
                f"<td>{entry.get('events', 0)}</td></tr>"
            )
        parts.append("</table>")

    if events:
        parts.append("<h2>Events</h2><table><tr><th>t (s)</th><th>monitor</th>"
                     "<th>severity</th><th>message</th></tr>")
        for event in events:
            colour = _SEVERITY_COLOURS.get(event.get("severity", ""), "#555")
            parts.append(
                f"<tr><td>{event.get('time', 0.0):.0f}</td>"
                f"<td>{html.escape(event.get('monitor', '?'))}</td>"
                f'<td style="color:{colour}">'
                f"{html.escape(event.get('severity', '?'))}</td>"
                f"<td>{html.escape(event.get('message', ''))}</td></tr>"
            )
        parts.append("</table>")

    if samples:
        parts.append(f"<h2>Timeline ({len(samples)} samples)</h2>")
        for key, caption in SERIES:
            chart = _svg_line_chart(times, _series_values(samples, key), caption)
            if chart:
                parts.append(chart)

    parts.append("</body></html>")
    return "\n".join(parts)


def write_html_report(
    run: Dict[str, Any], out_path: Optional[PathLike] = None
) -> Path:
    """Write the HTML report; defaults to ``DIR/report.html``."""
    target = (
        Path(out_path) if out_path is not None
        else Path(run["directory"]) / REPORT_NAME
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_html_report(run), encoding="utf-8")
    return target
