"""Chrome-trace / Perfetto export of finished spans.

The on-disk format is the Trace Event Format's *JSON Array* flavour,
written one event per line::

    [
    {"name": "solve", "cat": "facility", "ph": "X", ...},
    {"name": "fsync", "cat": "persist", "ph": "X", ...},

The spec explicitly permits the missing ``]`` ("the file can be
incomplete"), so the file is simultaneously

* directly loadable in https://ui.perfetto.dev and ``chrome://tracing``, and
* line-oriented (JSONL after the first line): streamable while a run is
  still in flight, greppable, and parseable a line at a time — which is
  how :func:`read_trace_events` and the schema test consume it.

Each span becomes one complete event (``"ph": "X"``) on the **wall-time**
timeline by default — the profiling question is where the *process*
spends real time — with the simulated-time interval preserved in
``args.sim_start_s`` / ``args.sim_dur_s``.  ``timebase="sim"`` flips the
two, rendering the run on protocol time instead (block races, elections,
recovery windows).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.obs.tracer import Span

PathLike = Union[str, Path]

def write_json(document: object, path: PathLike) -> Path:
    """Write ``document`` as indented, key-sorted JSON; returns the path.

    The one JSON-file writer for run records, verdicts, reports and
    merged snapshots: parent directories are created, values JSON cannot
    encode are written as their ``str``, and the file ends in a newline.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return target


#: ``pid`` used for every event — one simulated process.
TRACE_PID = 1

#: ``tid`` used for every event: a single track keeps parent/child spans
#: visually nested (Chrome nests complete events on one track by time
#: containment); categories separate subsystems instead.
TRACE_TID = 1


def span_to_event(span: Span, timebase: str = "wall") -> Dict[str, Any]:
    """One span → one Trace Event Format 'complete' event."""
    if timebase == "wall":
        ts_us = span.wall_start_ns / 1e3
        dur_us = span.wall_duration_ns / 1e3
    elif timebase == "sim":
        ts_us = (span.sim_start or 0.0) * 1e6
        dur_us = span.sim_duration * 1e6
    else:
        raise ValueError(f"timebase must be 'wall' or 'sim', not {timebase!r}")
    args: Dict[str, Any] = {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "wall_dur_us": span.wall_duration_ns / 1e3,
    }
    if span.sim_start is not None:
        args["sim_start_s"] = span.sim_start
        args["sim_dur_s"] = span.sim_duration
    if span.trace_id is not None:
        args["trace_id"] = span.trace_id
    if span.remote_parent is not None:
        args["remote_parent"] = span.remote_parent
        args["remote_origin"] = span.remote_origin
    args.update(span.attrs)
    return {
        "name": span.name,
        "cat": span.category or "uncategorized",
        "ph": "X",
        "ts": ts_us,
        "dur": dur_us,
        "pid": TRACE_PID,
        "tid": TRACE_TID,
        "args": args,
    }


def write_perfetto_jsonl(
    spans: Iterable[Span], path: PathLike, timebase: str = "wall",
    origin: str = "",
) -> Path:
    """Write spans as a Perfetto-loadable, line-oriented trace file.

    ``origin`` (the tracer's process identity) is recorded as a
    ``trace_origin`` metadata event so ``repro trace merge`` can assign
    per-process tracks — and tell processes apart — when stitching
    multi-process runs back together.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        handle.write("[\n")
        metadata = {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {"name": f"repro simulation ({timebase} time)"},
        }
        handle.write(json.dumps(metadata, sort_keys=True) + ",\n")
        if origin:
            origin_meta = {
                "name": "trace_origin",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": {"origin": origin},
            }
            handle.write(json.dumps(origin_meta, sort_keys=True) + ",\n")
        for span in spans:
            event = span_to_event(span, timebase=timebase)
            handle.write(json.dumps(event, sort_keys=True) + ",\n")
    return target


def read_trace_events(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a trace file written by :func:`write_perfetto_jsonl`.

    Tolerates both the native line-oriented form and a strict JSON array
    (the ``repro trace export`` output).
    """
    raw = Path(path).read_text(encoding="utf-8").strip()
    if not raw:
        return []
    try:
        parsed = json.loads(raw)
        if isinstance(parsed, list):
            return parsed
    except json.JSONDecodeError:
        pass
    events: List[Dict[str, Any]] = []
    for line in raw.splitlines():
        line = line.strip().rstrip(",")
        if line in ("", "[", "]"):
            continue
        events.append(json.loads(line))
    return events


def write_strict_json(events: List[Dict[str, Any]], path: PathLike) -> Path:
    """Write events as a strict JSON array (for tools that demand it)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(events, handle, sort_keys=True)
        handle.write("\n")
    return target


def summarize_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate complete events into per-(category, name) rows.

    Returns rows sorted by total wall time, descending — the "where did
    the run go" table behind ``repro trace summary``.
    """
    totals: Dict[tuple, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = (event.get("cat", ""), event.get("name", ""))
        row = totals.setdefault(
            key,
            {
                "category": key[0],
                "name": key[1],
                "count": 0,
                "wall_ms": 0.0,
                "sim_s": 0.0,
            },
        )
        row["count"] += 1
        args = event.get("args", {})
        row["wall_ms"] += args.get("wall_dur_us", event.get("dur", 0.0)) / 1e3
        row["sim_s"] += args.get("sim_dur_s", 0.0)
    return sorted(totals.values(), key=lambda row: -row["wall_ms"])
