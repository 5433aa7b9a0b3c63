"""Process-global observability state and the hot-path hook helpers.

Instrumented code never owns a tracer; it calls the module-level helpers
here (:func:`span`, :func:`add`, :func:`observe`, :func:`gauge_set`),
which dispatch to the process-global state.  That keeps the hooks to one
branch each, keeps tracers out of the simulated object graph, and means
a library user can flip observability on around *any* existing entry
point:

    from repro import obs

    session = obs.enable(sim_clock=lambda: engine.now)
    run_experiment(spec)
    obs.export(session, "obs-out/")
    obs.disable()

Disabled (the default), :func:`span` returns a shared no-op context
manager and the metric helpers return immediately — the overhead-guard
test proves simulation results are bit-identical either way.
"""

from __future__ import annotations

import contextlib
import functools
import math
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.obs.export import write_perfetto_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import EVENTS_NAME, VERDICT_NAME, MonitorSuite
from repro.obs.timeline import TIMELINE_NAME, Timeline
from repro.obs.tracer import (
    NullTracer,
    TraceContext,
    Tracer,
    _NullSpanHandle,
    _SpanHandle,
)

PathLike = Union[str, Path]

TRACE_NAME = "trace.jsonl"
METRICS_NAME = "metrics.json"


class ObsSession:
    """One enabled observability window: tracer, registry, and (optionally)
    a protocol timeline with its health monitors.

    The live-telemetry extensions (streaming ring, exposition endpoint,
    sampling profiler — DESIGN.md §13) are armed per-session via
    :meth:`start_stream` / :meth:`start_telemetry` / :meth:`start_profiler`
    and torn down by :meth:`export`.
    """

    enabled = True

    def __init__(
        self,
        sim_clock: Optional[Callable[[], float]] = None,
        max_spans: int = 2_000_000,
        timeline_interval: Optional[float] = None,
        origin: str = "n0",
    ):
        self.tracer = Tracer(
            sim_clock=sim_clock, max_spans=max_spans, origin=origin
        )
        self.metrics = MetricsRegistry()
        self.timeline: Optional[Timeline] = (
            Timeline(timeline_interval) if timeline_interval is not None else None
        )
        self.monitors: Optional[MonitorSuite] = None
        self.stream: Optional[Any] = None
        self.server: Optional[Any] = None
        self.profiler: Optional[Any] = None

    # -- live telemetry plane --------------------------------------------------------

    def start_stream(self, directory: PathLike, max_bytes: Optional[int] = None):
        """Arm the streaming JSONL ring; flushed on every timeline tick."""
        from repro.obs.live.stream import DEFAULT_MAX_BYTES, TelemetryStream

        self.stream = TelemetryStream(
            directory,
            node=self.tracer.origin,
            max_bytes=max_bytes if max_bytes is not None else DEFAULT_MAX_BYTES,
        )
        return self.stream

    def start_telemetry(self, port: int = 0, host: str = "127.0.0.1") -> int:
        """Serve ``/metrics`` + ``/snapshot``; returns the bound port."""
        from repro.obs.live.expo import TelemetryServer

        self.server = TelemetryServer(self, port=port, host=host)
        return self.server.start()

    def start_profiler(
        self, hz: Optional[float] = None, thread_id: Optional[int] = None
    ):
        """Start the background stack sampler on the calling thread."""
        from repro.obs.live.profiler import DEFAULT_HZ, SamplingProfiler

        self.profiler = SamplingProfiler(
            hz=hz if hz is not None else DEFAULT_HZ, thread_id=thread_id
        )
        self.profiler.start()
        return self.profiler

    def attach_runtime(self, runtime: Any) -> None:
        """Point the timeline probe (and monitors) at a live runtime.

        Accepts anything with a ``cluster`` attribute (a ``SimRuntime``)
        or a cluster itself.  No-op when the session has no timeline.
        """
        if self.timeline is None:
            return
        cluster = getattr(runtime, "cluster", runtime)
        self.timeline.attach(cluster)
        if self.monitors is None:
            self.monitors = MonitorSuite.for_config(cluster.config)

    def export(self, directory: PathLike, timebase: str = "wall") -> "Path":
        """Write ``trace.jsonl`` + ``metrics.json`` (and, when the timeline
        is on, ``timeline.jsonl`` + ``events.jsonl`` + ``verdict.json``;
        when the profiler ran, ``profile_folded.txt``) into ``directory``.

        Also tears the live plane down: the exposition server stops, the
        profiler stops, and the streaming ring is closed.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.profiler is not None:
            self.profiler.stop()
        # Dropped spans were silently swallowed before; surface them as a
        # counter so reports and scrapes can warn about trace truncation.
        dropped = self.tracer.dropped_spans
        if dropped:
            counter = self.metrics.counter("obs.spans_dropped")
            counter.inc(dropped - counter.value)
        write_perfetto_jsonl(
            self.tracer.finished,
            target / TRACE_NAME,
            timebase=timebase,
            origin=self.tracer.origin,
        )
        self.metrics.write_json(target / METRICS_NAME)
        if self.timeline is not None:
            self.timeline.write_jsonl(target / TIMELINE_NAME)
        if self.monitors is not None:
            self.monitors.write_events(target / EVENTS_NAME)
            self.monitors.write_verdict(target / VERDICT_NAME)
        if self.profiler is not None:
            from repro.obs.live.profiler import PROFILE_NAME

            self.profiler.write_folded(target / PROFILE_NAME)
            self.profiler = None
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        return target


class _Disabled:
    """Singleton standing in for "no session": enabled is False."""

    enabled = False
    tracer = NullTracer()
    metrics = MetricsRegistry()  # writes here are unreachable via helpers
    timeline = None
    monitors = None
    stream = None
    server = None
    profiler = None


_DISABLED = _Disabled()

#: The process-global state every hook reads: either ``_DISABLED`` or a
#: live :class:`ObsSession`.
_state: Any = _DISABLED


def enable(
    sim_clock: Optional[Callable[[], float]] = None,
    max_spans: int = 2_000_000,
    timeline_interval: Optional[float] = None,
    origin: str = "n0",
) -> ObsSession:
    """Turn observability on; returns the live session.

    ``timeline_interval`` (simulated seconds) additionally arms the
    protocol timeline sampler and its health monitors; they start
    producing data once a runtime attaches (``build_runtime`` and
    ``resume_run`` do this automatically).  ``origin`` is the process
    identity baked into trace ids (``n{id}`` for live node processes).
    """
    global _state
    session = ObsSession(
        sim_clock=sim_clock,
        max_spans=max_spans,
        timeline_interval=timeline_interval,
        origin=origin,
    )
    _state = session
    return session


def disable() -> None:
    """Turn observability off (hooks revert to the null path)."""
    global _state
    _state = _DISABLED


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Observe nothing inside the block, then carry on with the session.

    A resume replays the interrupted run from genesis inside it, so an
    observed resume records only the segment it adds."""
    global _state
    held, _state = _state, _DISABLED
    try:
        yield
    finally:
        _state = held


def is_enabled() -> bool:
    return _state.enabled


def active_session() -> Optional[ObsSession]:
    """The live session, or None when disabled."""
    return _state if _state.enabled else None


def set_sim_clock(sim_clock: Optional[Callable[[], float]]) -> None:
    """Attach/detach the simulated-time clock on the live tracer."""
    if _state.enabled:
        _state.tracer.sim_clock = sim_clock


def attach_runtime(runtime: Any, sim_clock: Callable[[], float]) -> None:
    """Follow the newest runtime (no-op when off): spans read ``sim_clock``
    and the timeline probe samples ``runtime``."""
    if _state.enabled:
        _state.tracer.sim_clock = sim_clock
        _state.attach_runtime(runtime)


def timeline_tick(now: float) -> None:
    """Advance the timeline sampler to simulated time ``now``.

    Called from the engine's (already enabled-gated) observability
    branch; samples feed straight into the monitor suite.  Reads sim
    state only — never mutates it or touches the event queue.
    """
    state = _state
    timeline = state.timeline
    if timeline is None:
        return
    sample = timeline.maybe_sample(now)
    if sample is None:
        return
    if state.monitors is not None:
        state.monitors.observe(sample)
    # The streaming ring rides the timeline cadence: one flush per new
    # sample, so streaming inherits the tick's digest-neutrality.
    if state.stream is not None:
        state.stream.on_sample(sample, state.metrics, state.monitors)


# -- hot-path hooks -------------------------------------------------------------------


def span(
    name: str, category: str = "", **attrs: Any
) -> Union[_SpanHandle, _NullSpanHandle]:
    """Open a span on the live tracer (no-op context manager when off)."""
    return _state.tracer.span(name, category, **attrs)


def current_trace_context() -> Optional[TraceContext]:
    """Wire-ready context of the innermost open span (None when off/idle).

    This is what the net layer serialises into the ``"tc"`` envelope
    field — see :meth:`repro.net.router.SocketNetwork.send`.
    """
    if not _state.enabled:
        return None
    return _state.tracer.current_context()


def remote_span(
    name: str, category: str = "", ctx: Optional[TraceContext] = None, **attrs: Any
) -> Union[_SpanHandle, _NullSpanHandle]:
    """Open a span continuing a received trace context (plain span when
    ``ctx`` is None; no-op when observability is off)."""
    tracer = _state.tracer
    if ctx is None:
        return tracer.span(name, category, **attrs)
    return tracer.remote_span(name, category, ctx, **attrs)


def add(name: str, amount: int = 1) -> None:
    """Increment a counter (no-op when off)."""
    if _state.enabled:
        _state.metrics.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op when off)."""
    if _state.enabled:
        _state.metrics.histogram(name).record(value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op when off)."""
    if _state.enabled:
        _state.metrics.gauge(name).set(value)


def traced_solver(name: str) -> Callable:
    """Decorate a UFL solver with a per-solve span (size + cost attributes).

    The wrapped function must take the :class:`~repro.facility.problem.
    UFLProblem` as its first argument and return a ``UFLSolution``; both
    are accessed by duck typing so this module stays dependency-free.
    Disabled, the wrapper is a single branch around the original call.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            state = _state
            if not state.enabled:
                return fn(problem, *args, **kwargs)
            with span(
                "facility.solve",
                "facility",
                solver=name,
                facilities=problem.num_facilities,
                clients=problem.num_clients,
            ) as handle:
                solution = fn(problem, *args, **kwargs)
                cost = solution.total_cost(problem)
                handle.set(cost=cost, replicas=solution.replica_count)
            state.metrics.counter(f"facility.{name}.solves").inc()
            if math.isfinite(cost):
                state.metrics.histogram("facility.solve_cost").record(cost)
            return solution

        return wrapper

    return decorate
