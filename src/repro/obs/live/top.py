"""``repro top`` — a terminal live view over a telemetry source.

The source is either

* an obs **directory** holding a streaming ``telemetry.jsonl`` ring
  (written when ``--telemetry`` streams alongside ``--obs``), or
* a telemetry endpoint **URL** (``http://host:port``), polled via its
  ``/snapshot`` JSON view.

Both resolve to the same view dict: the latest timeline sample, counter
values, a derived msgs/sec (from the two most recent counter records'
logical timestamps).
"""

from __future__ import annotations

import json
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.metrics.report import render_table
from repro.obs.live.stream import read_stream

PathLike = Union[str, Path]

_MSG_COUNTERS = ("net.messages_sent", "engine.events")


def _rate(
    newer: Optional[Dict[str, Any]], older: Optional[Dict[str, Any]]
) -> Optional[float]:
    """msgs/sec between two counter records on the logical clock."""
    if not newer or not older:
        return None
    t_new, t_old = newer.get("t"), older.get("t")
    if not isinstance(t_new, (int, float)) or not isinstance(t_old, (int, float)):
        return None
    dt = t_new - t_old
    if dt <= 0:
        return None
    for name in _MSG_COUNTERS:
        new_v = newer.get("values", {}).get(name)
        old_v = older.get("values", {}).get(name)
        if isinstance(new_v, (int, float)) and isinstance(old_v, (int, float)):
            return (new_v - old_v) / dt
    return None


def _view_from_stream(directory: PathLike) -> Dict[str, Any]:
    records = read_stream(directory)
    if not records:
        raise FileNotFoundError(
            f"no telemetry stream under {directory} — was the run made "
            "with --obs DIR --telemetry PORT (which arms streaming)?"
        )
    node = next(
        (r.get("node") for r in records if r.get("kind") == "header"), "?"
    )
    samples = [r for r in records if r.get("kind") == "sample"]
    counter_records = [r for r in records if r.get("kind") == "counters"]
    events = [r for r in records if r.get("kind") == "event"]
    counters: Dict[str, Any] = {}
    for record in counter_records:
        counters.update(record.get("values", {}))
    return {
        "source": str(directory),
        "node": node,
        "sample": samples[-1] if samples else None,
        "counters": counters,
        "msgs_per_sec": _rate(
            counter_records[-1] if counter_records else None,
            counter_records[-2] if len(counter_records) > 1 else None,
        ),
        "events": events[-5:],
        "records": len(records),
        "spans_dropped": None,
    }


def _view_from_url(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(f"{url.rstrip('/')}/snapshot", timeout=10) as response:
        payload = json.loads(response.read().decode("utf-8"))
    return {
        "source": url,
        "node": payload.get("node", "?"),
        "sample": payload.get("sample"),
        "counters": payload.get("counters", {}),
        "msgs_per_sec": None,
        "events": [],
        "records": None,
        "spans_dropped": payload.get("spans_dropped"),
    }


def load_top_view(source: str) -> Dict[str, Any]:
    """Resolve a directory or URL into the common top-view dict."""
    if source.startswith(("http://", "https://")):
        return _view_from_url(source)
    return _view_from_stream(source)


def _fmt(value: Any, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_top(view: Dict[str, Any]) -> str:
    """The one-screen terminal rendering of a top view."""
    sample = view.get("sample") or {}
    counters = view.get("counters", {})
    rows: List[List[Any]] = [
        ["node", view.get("node", "?")],
        ["logical t (s)", _fmt(sample.get("t"), 0)],
        ["chain height", _fmt(sample.get("height"))],
        ["block interval EWMA (s)", _fmt(sample.get("interval_ewma"))],
        ["interval / t0", _fmt(sample.get("interval_ratio"))],
        ["mempool depth", _fmt(sample.get("mempool_depth"))],
        ["quarantined peers", _fmt(sample.get("chaos_quarantined"))],
        ["admission rejections", _fmt(sample.get("chaos_rejections"))],
        ["queue depth", _fmt(sample.get("queue_depth"))],
        ["msgs/sec (logical)", _fmt(view.get("msgs_per_sec"))],
        ["messages sent", _fmt(counters.get("net.messages_sent"))],
        ["frames rejected", _fmt(counters.get("net.frames_rejected"))],
    ]
    if view.get("spans_dropped"):
        rows.append(["spans dropped", view["spans_dropped"]])
    sections = [render_table(f"repro top — {view['source']}", ["field", "value"], rows)]

    events = view.get("events") or []
    if events:
        sections.append(
            render_table(
                "recent events",
                ["t", "monitor", "severity", "message"],
                [
                    [
                        _fmt(e.get("time"), 0),
                        e.get("monitor", "?"),
                        e.get("severity", "?"),
                        e.get("message", ""),
                    ]
                    for e in events
                ],
            )
        )
    return "\n\n".join(sections)
