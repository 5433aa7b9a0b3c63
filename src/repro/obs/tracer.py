"""Nested span tracing on two clocks: wall time and simulated time.

A :class:`Span` records where a run spent its time.  Every span carries:

* **wall time** (``time.perf_counter_ns``) — where the *process* spends
  real time: solver inner loops, SQLite commits, ``os.fsync``;
* **sim time** (the event engine's clock, when one is attached) — where
  the *simulated system* spends protocol time: election rounds, block
  races, recovery windows.

Spans nest: :meth:`Tracer.span` is a context manager, and the tracer
maintains an explicit stack so each finished span knows its parent.  The
stack discipline is purely lexical (``with`` blocks), which is exactly how
the single-threaded event loop executes — there is no cross-event context
propagation to get wrong.

The disabled path is :class:`NullTracer`: its :meth:`~NullTracer.span`
returns one shared no-op context manager, so an instrumented hot path
pays a single dynamic dispatch and no allocation when tracing is off.
Determinism contract: a tracer only *reads* simulation state (the clock);
it never touches RNGs or protocol state, so enabling it cannot perturb a
run — ``tests/integration/test_obs_overhead.py`` proves the digests match.

Cross-process causality
-----------------------

Every root span is assigned a **trace id** — ``"{origin}:{span_id}"``,
globally unique because each process picks a distinct origin (``n{id}``
for live nodes) — and children inherit it, so one trace is one causal
unit of work.  :meth:`Tracer.current_context` snapshots the innermost
open span as a :class:`TraceContext`; the net layer serialises it into
the wire envelope (``"tc"``) and the receiver re-opens the trace with
:meth:`Tracer.remote_span`, recording the sender's span as
``remote_parent``/``remote_origin``.  ``repro trace merge --trace-out``
stitches the per-process files back into one multi-process trace by
trace id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of one open span (what crosses a socket).

    ``sent_at`` is the sender's *logical* clock at serialisation time —
    the third leg of the wire trace-context alongside the trace id and
    the parent span id.
    """

    trace_id: str
    span_id: int
    origin: str
    sent_at: float = 0.0

    def to_wire(self) -> List[Any]:
        """Compact JSON-array form carried in the net envelope."""
        return [self.trace_id, self.span_id, self.origin, self.sent_at]

    @classmethod
    def from_wire(cls, value: Any) -> Optional["TraceContext"]:
        """Parse the envelope form; None for anything malformed (a peer's
        trace context is advisory — never worth rejecting a frame over)."""
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 4
            or not isinstance(value[0], str)
            or isinstance(value[1], bool)
            or not isinstance(value[1], int)
            or not isinstance(value[2], str)
            or not isinstance(value[3], (int, float))
        ):
            return None
        return cls(
            trace_id=value[0],
            span_id=value[1],
            origin=value[2],
            sent_at=float(value[3]),
        )


@dataclass
class Span:
    """One finished (or in-flight) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    #: Wall clock, integer nanoseconds from ``time.perf_counter_ns``.
    wall_start_ns: int
    wall_end_ns: Optional[int] = None
    #: Simulation clock, seconds; None when no sim clock was attached.
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Causal trace this span belongs to (``"{origin}:{root_span_id}"``).
    trace_id: Optional[str] = None
    #: Sender-side parent span, when this span was re-parented off a
    #: :class:`TraceContext` received over the wire.
    remote_parent: Optional[int] = None
    remote_origin: Optional[str] = None

    @property
    def wall_duration_ns(self) -> int:
        if self.wall_end_ns is None:
            return 0
        return self.wall_end_ns - self.wall_start_ns

    @property
    def sim_duration(self) -> float:
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start


class _SpanHandle:
    """Context manager that closes one span on exit.

    Also the write surface for attributes discovered mid-span
    (``handle.set(cost=4.2)``), e.g. a solver recording its solution cost.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def set(self, **attrs: Any) -> "_SpanHandle":
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self._span)


class _NullSpanHandle:
    """The shared do-nothing span handle returned while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpanHandle()


class Tracer:
    """Collects nested spans; bounded, in-memory, export-ready.

    Parameters
    ----------
    sim_clock:
        Optional zero-argument callable returning the current simulated
        time in seconds (typically ``lambda: engine.now`` — attached by
        the runner).
    max_spans:
        Hard cap on retained finished spans; once reached, further spans
        are counted (:attr:`dropped_spans`) but not stored, so a very long
        run cannot exhaust memory.  The cap is generous: an hour-long
        20-node run emits on the order of 10^5 spans.
    origin:
        Short process identity prefixed onto every root span's trace id
        (live nodes use ``n{id}``); keeps trace ids globally unique when
        per-process trace files are merged.
    """

    enabled = True

    def __init__(
        self,
        sim_clock: Optional[Callable[[], float]] = None,
        max_spans: int = 2_000_000,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
        origin: str = "n0",
    ):
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.sim_clock = sim_clock
        self.max_spans = max_spans
        self.origin = origin
        self._wall_clock = wall_clock
        self._next_id = 1
        self._stack: List[Span] = []
        self.finished: List[Span] = []
        self.dropped_spans = 0

    def span(self, name: str, category: str = "", **attrs: Any) -> _SpanHandle:
        """Open a nested span; close it by exiting the returned context."""
        sim_now = self.sim_clock() if self.sim_clock is not None else None
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            wall_start_ns=self._wall_clock(),
            sim_start=sim_now,
            attrs=attrs,
            trace_id=(
                parent.trace_id
                if parent is not None
                else f"{self.origin}:{self._next_id}"
            ),
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def remote_span(
        self, name: str, category: str, ctx: TraceContext, **attrs: Any
    ) -> _SpanHandle:
        """Open a span continuing a trace received from another process.

        The span joins ``ctx``'s trace and records the sender's span id
        and origin, so a merged multi-process trace can re-parent it
        under the exact send-side span.  Lexical nesting still applies —
        any locally open span stays the wall-clock parent.
        """
        handle = self.span(name, category, **attrs)
        span = handle.span
        span.trace_id = ctx.trace_id
        span.remote_parent = ctx.span_id
        span.remote_origin = ctx.origin
        return handle

    def current_context(self) -> Optional[TraceContext]:
        """The innermost open span as a :class:`TraceContext` (or None).

        ``sent_at`` is stamped with the sim clock when one is attached —
        the logical instant the context was captured for the wire.
        """
        if not self._stack:
            return None
        top = self._stack[-1]
        sim_now = self.sim_clock() if self.sim_clock is not None else None
        return TraceContext(
            trace_id=top.trace_id or f"{self.origin}:{top.span_id}",
            span_id=top.span_id,
            origin=self.origin,
            sent_at=sim_now if sim_now is not None else 0.0,
        )

    def _finish(self, span: Span) -> None:
        span.wall_end_ns = self._wall_clock()
        if self.sim_clock is not None:
            span.sim_end = self.sim_clock()
        # Close abandoned children too (an exception unwound past them).
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if len(self.finished) < self.max_spans:
            self.finished.append(span)
        else:
            self.dropped_spans += 1

    @property
    def depth(self) -> int:
        """Current nesting depth (open spans)."""
        return len(self._stack)

    def clear(self) -> None:
        self._stack.clear()
        self.finished.clear()
        self.dropped_spans = 0


class NullTracer:
    """The disabled tracer: every hook collapses to one cheap call."""

    enabled = False
    sim_clock = None
    origin = ""
    dropped_spans = 0

    def span(self, name: str, category: str = "", **attrs: Any) -> _NullSpanHandle:
        return NULL_SPAN

    def remote_span(
        self, name: str, category: str, ctx: TraceContext, **attrs: Any
    ) -> _NullSpanHandle:
        return NULL_SPAN

    def current_context(self) -> Optional[TraceContext]:
        return None

    @property
    def finished(self) -> List[Span]:
        return []

    @property
    def depth(self) -> int:
        return 0

    def clear(self) -> None:
        return None
