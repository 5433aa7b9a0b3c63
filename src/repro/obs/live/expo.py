"""Prometheus-style text exposition over a background HTTP server.

``--telemetry PORT`` starts a :class:`TelemetryServer` on localhost:

* ``GET /metrics`` — the registry rendered in Prometheus' text format
  (``repro_`` prefix, counters/gauges verbatim, histograms as
  ``_count``/``_sum`` pairs), ready for any off-the-shelf scraper;
* ``GET /snapshot`` — a JSON view for ``repro top URL``: the latest
  timeline sample, counter values, and the node's identity.

The server runs on a daemon thread and only ever *reads* observability
state: the registry snapshot and the timeline's sample list.  Both are
appended to by the simulation thread; the handlers retry the rare
"dict changed size during iteration" race instead of locking the hot
path — a scrape must never be able to slow the run down, let alone
perturb it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

#: Exposition metric-name prefix.
PROM_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    """A registry name (``net.frames_sent``) as a Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return PROM_PREFIX + sanitized


def render_prometheus(
    snapshot: Dict[str, Any], extra: Optional[Dict[str, float]] = None
) -> str:
    """A registry snapshot in the Prometheus text exposition format.

    ``extra`` adds ad-hoc gauges (chain height, mempool depth) sourced
    from the latest timeline sample rather than the registry.
    """
    lines = []
    for name, inst in sorted(snapshot.get("instruments", {}).items()):
        kind = inst.get("type")
        metric = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {inst['value']}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {inst['value']}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {inst['count']}")
            lines.append(f"{metric}_sum {inst['sum']}")
    for name, value in sorted((extra or {}).items()):
        if value is None:
            continue
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"


def _retry_reads(fn, attempts: int = 5):
    """Re-run a racy read on 'dict changed size during iteration'."""
    for _ in range(attempts - 1):
        try:
            return fn()
        except RuntimeError:
            continue
    return fn()


class TelemetryServer:
    """Daemon-thread HTTP exposition over one live obs session."""

    def __init__(self, session: Any, port: int = 0, host: str = "127.0.0.1"):
        self.session = session
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- views ----------------------------------------------------------------------

    def _sample(self) -> Optional[Dict[str, Any]]:
        timeline = self.session.timeline
        if timeline is None:
            return None
        samples = timeline.samples
        return dict(samples[-1]) if samples else None

    def _extra_gauges(self) -> Dict[str, float]:
        sample = self._sample()
        if sample is None:
            return {}
        extra = {}
        for key in (
            "t",
            "height",
            "interval_ewma",
            "mempool_depth",
            "queue_depth",
            "chaos_quarantined",
        ):
            value = sample.get(key)
            if isinstance(value, (int, float)) and value == value:
                extra[f"timeline.{key}"] = value
        return extra

    def metrics_text(self) -> str:
        return _retry_reads(
            lambda: render_prometheus(
                self.session.metrics.snapshot(), self._extra_gauges()
            )
        )

    def snapshot_json(self) -> Dict[str, Any]:
        def build() -> Dict[str, Any]:
            snapshot = self.session.metrics.snapshot()
            counters = {
                name: inst["value"]
                for name, inst in snapshot.get("instruments", {}).items()
                if inst.get("type") == "counter"
            }
            sample = self._sample()
            if sample is not None:
                sample = {
                    key: (None if isinstance(value, float) and value != value else value)
                    for key, value in sample.items()
                }
            return {
                "node": self.session.tracer.origin,
                "sample": sample,
                "counters": counters,
                "spans_dropped": self.session.tracer.dropped_spans,
            }

        return _retry_reads(build)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                try:
                    if self.path.split("?", 1)[0] == "/metrics":
                        body = server.metrics_text().encode("utf-8")
                        content_type = "text/plain; version=0.0.4"
                    elif self.path.split("?", 1)[0] == "/snapshot":
                        body = (
                            json.dumps(server.snapshot_json(), sort_keys=True)
                            + "\n"
                        ).encode("utf-8")
                        content_type = "application/json"
                    else:
                        self.send_error(404, "unknown path")
                        return
                except (RuntimeError, TypeError, ValueError) as error:
                    # A read still racing the run after every retry
                    # (RuntimeError), or a value that does not render or
                    # serialise (TypeError, ValueError), fails this scrape
                    # alone: a 500, and the next scrape reads afresh.
                    self.send_error(500, str(error))
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                return  # stdout is a protocol surface in --procs mode

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
