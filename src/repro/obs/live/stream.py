"""Per-node streaming telemetry: a bounded JSONL ring on disk.

The post-mortem exporter waits for the run to end; the stream writes as
the run progresses, riding the existing timeline cadence — every new
timeline sample triggers one flush from inside the engine's (already
enabled-gated) observability branch, so streaming inherits the timeline's
digest-neutrality by construction: no new hooks, no events on the engine
queue, reads only.

Each flush appends up to three record kinds:

* ``sample`` — the timeline sample verbatim;
* ``counters`` — counter values that changed since the previous flush
  (a delta stream: replaying the ring from any point converges);
* ``event`` — monitor events raised since the previous flush.

The ring is two segments: when ``telemetry.jsonl`` exceeds
``max_bytes`` it is rotated to ``telemetry.jsonl.1`` (overwriting the
previous segment), so a week-long run holds at most ``2·max_bytes`` of
telemetry on disk.  :func:`read_stream` reads ``.1`` first, so readers
see the surviving window in order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, Path]

STREAM_NAME = "telemetry.jsonl"
STREAM_SCHEMA = "repro.obs.stream/v1"

#: Default ring-segment budget — generous for hours of samples at the
#: default cadence, small enough to never matter on disk.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024


class TelemetryStream:
    """Append-only JSONL ring fed from the timeline tick.

    Parameters
    ----------
    directory:
        Where the ring lives (``telemetry.jsonl`` + rotated ``.1``).
    node:
        Origin label stamped into the header record.
    max_bytes:
        Per-segment rotation threshold.
    """

    def __init__(
        self,
        directory: PathLike,
        node: str = "n0",
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1024:
            raise ValueError("max_bytes must be at least 1 KiB")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / STREAM_NAME
        self.node = node
        self.max_bytes = max_bytes
        self.records_written = 0
        self.rotations = 0
        self._last_counters: Dict[str, int] = {}
        self._events_cursor = 0
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(
            {"kind": "header", "schema": STREAM_SCHEMA, "node": node}
        )

    # -- writing --------------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        self._handle.write(line + "\n")
        self._handle.flush()
        self.records_written += 1
        if self._handle.tell() >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._handle.close()
        self.path.replace(self.path.with_suffix(self.path.suffix + ".1"))
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "kind": "header",
                "schema": STREAM_SCHEMA,
                "node": self.node,
                "rotated": self.rotations + 1,
            }
        )
        self.rotations += 1

    def _counter_delta(self, metrics: Any) -> Dict[str, int]:
        """Counter values that changed since the last flush."""
        changed: Dict[str, int] = {}
        for name, inst in metrics.snapshot()["instruments"].items():
            if inst.get("type") != "counter":
                continue
            value = inst["value"]
            if self._last_counters.get(name) != value:
                changed[name] = value
                self._last_counters[name] = value
        return changed

    def on_sample(
        self,
        sample: Dict[str, Any],
        metrics: Any = None,
        monitors: Any = None,
    ) -> None:
        """Flush one timeline sample plus counter deltas and new events."""
        self._write({"kind": "sample", **_jsonable_dict(sample)})
        if metrics is not None:
            delta = self._counter_delta(metrics)
            if delta:
                self._write(
                    {"kind": "counters", "t": sample.get("t"), "values": delta}
                )
        if monitors is not None:
            events = monitors.events
            for event in events[self._events_cursor:]:
                self._write({"kind": "event", **event.to_dict()})
            self._events_cursor = len(events)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __del__(self) -> None:  # belt and braces; close() is the contract
        # A stream whose constructor failed before opening has no handle;
        # closing an open one fails only as its final flush does.
        if hasattr(self, "_handle"):
            try:
                self.close()
            except OSError:
                pass


def _jsonable_dict(sample: Dict[str, Any]) -> Dict[str, Any]:
    """NaN/inf → None so every stream line is strict JSON."""
    out: Dict[str, Any] = {}
    for key, value in sample.items():
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            out[key] = None
        else:
            out[key] = value
    return out


def read_stream(source: PathLike) -> List[Dict[str, Any]]:
    """Read the ring back in order (rotated segment first).

    ``source`` is the stream file or the directory holding it.  Tolerates
    a torn final line (the writer may have been killed mid-append).
    """
    path = Path(source)
    if path.is_dir():
        path = path / STREAM_NAME
    records: List[Dict[str, Any]] = []
    rotated = path.with_suffix(path.suffix + ".1")
    for segment in (rotated, path):
        if not segment.exists():
            continue
        with segment.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail
    return records
