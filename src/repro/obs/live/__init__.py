"""Live telemetry plane: streaming metrics, trace stitching, profiling.

While :mod:`repro.obs` (PRs 2–3) buffers spans and metrics in memory and
exports them post-mortem, everything under ``repro.obs.live`` works
*while the system runs* — and across process boundaries:

* :mod:`~repro.obs.live.context` — stitch per-process trace files into
  one multi-process trace by trace id (the wire carries a compact
  :class:`~repro.obs.tracer.TraceContext` per message).
* :mod:`~repro.obs.live.stream` — a bounded per-node JSONL ring of
  timeline samples, counter deltas, and monitor events, flushed on every
  timeline tick.
* :mod:`~repro.obs.live.expo` — a Prometheus-style text exposition
  endpoint (``--telemetry PORT``) plus a JSON snapshot for ``repro top``.
* :mod:`~repro.obs.live.profiler` — a background-thread sampling
  profiler emitting folded stacks.
* :mod:`~repro.obs.live.flame` — a dependency-free flamegraph SVG
  renderer over folded stacks (``repro trace flame``).
* :mod:`~repro.obs.live.top` — the ``repro top DIR|URL`` terminal view.

Everything is disabled by default and digest-neutral when enabled: the
plane only ever *reads* simulation state (see DESIGN.md §13 and the
extended guard in ``tests/integration/test_obs_overhead.py``).
"""

from repro.obs.live.context import MERGED_TRACE_NAME, merge_trace_files
from repro.obs.live.expo import TelemetryServer, render_prometheus
from repro.obs.live.flame import render_flamegraph_svg, write_flamegraph
from repro.obs.live.profiler import (
    PROFILE_NAME,
    SamplingProfiler,
    read_folded,
    top_functions,
    write_folded,
)
from repro.obs.live.stream import STREAM_NAME, TelemetryStream, read_stream
from repro.obs.live.top import load_top_view, render_top

__all__ = [
    "MERGED_TRACE_NAME",
    "merge_trace_files",
    "TelemetryServer",
    "render_prometheus",
    "render_flamegraph_svg",
    "write_flamegraph",
    "PROFILE_NAME",
    "SamplingProfiler",
    "read_folded",
    "top_functions",
    "write_folded",
    "STREAM_NAME",
    "TelemetryStream",
    "read_stream",
    "load_top_view",
    "render_top",
]
