"""Deterministic discrete-event simulation engine.

The paper evaluated its blockchain over Docker containers communicating via
sockets; we reproduce the same protocol behaviour on a single deterministic
event loop.  Determinism is load-bearing: every distributed-protocol test in
this repository relies on identical seeds producing identical executions.

The engine is a classic heap-ordered event queue:

* :meth:`EventEngine.schedule` / :meth:`EventEngine.call_at` enqueue callbacks.
* Events at equal timestamps fire in insertion order (a monotonically
  increasing sequence number breaks ties), so "simultaneous" events are
  still deterministic.
* Cancellation is O(1): the event is marked dead and skipped when popped.
  The engine counts the dead entries still in its heap, and once they are
  more than half of it (and more than ``_PURGE_MIN_DEAD``) it filters them
  out and re-heapifies, as asyncio does with its cancelled timers.  The
  heap orders on ``(time, sequence)``, a total order, so dropping dead
  entries cannot change which live event pops next.  A node re-arms its
  mining timer at every block, so without the purge most of a long run's
  heap would be cancelled timers waiting for their fire time.

Time is a float number of **seconds** of simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.obs import runtime as _obs


#: The heap is purged only once it holds more dead entries than this
#: (asyncio's floor is 100 scheduled timers): a purge costs a pass over the
#: heap, and a small heap pops its dead entries soon enough.
_PURGE_MIN_DEAD = 100


def _callback_label(callback: Callable[..., None]) -> str:
    return getattr(callback, "__qualname__", None) or repr(callback)


@dataclass
class _Event:
    """A scheduled call; the heap holds it as ``(time, sequence, event)``
    so that sifting compares the key in C, never the event."""

    time: float
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False
    #: Additional ``(callback, args)`` pairs run (in order) after the main
    #: callback — one queue pop executing a whole same-time batch.
    batch: Optional[tuple] = None
    #: Still in the engine's heap.  The pop that runs the event (or
    #: :meth:`EventEngine.clear`) resets it, so cancelling a spent event
    #: does not count as a dead heap entry.
    queued: bool = True


#: One heap entry: ``(time, sequence, event)``.
_Entry = Tuple[float, int, _Event]


class EventHandle:
    """Opaque handle returned by :meth:`EventEngine.schedule`; supports cancel."""

    def __init__(self, event: _Event, engine: "EventEngine"):
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        """Mark the event dead (idempotent); it is skipped when popped and
        dropped at the engine's next purge."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if event.queued:
            self._engine._note_dead()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class EventEngine:
    """A deterministic event loop with an owned random source.

    Parameters
    ----------
    seed:
        Seed for both the :mod:`random` and :mod:`numpy` generators owned by
        the engine.  All simulation randomness must flow through
        :attr:`rng` / :attr:`np_rng` to keep runs reproducible.
    """

    def __init__(self, seed: int = 0):
        self._queue: List[_Entry] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self.seed = seed
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        #: Count of events executed; useful for bounding tests.
        self.events_processed = 0
        #: Cancelled entries still in ``_queue``.
        self._dead = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Number of heap entries: the live events plus the cancelled ones
        not yet popped or purged — at most as many as the live ones, or
        ``_PURGE_MIN_DEAD``, whichever is more."""
        return len(self._queue)

    def clock_reader(self) -> Callable[[], float]:
        """A zero-argument callable reading this engine's clock.

        Handed to the process-global tracer so spans can
        carry simulated time alongside wall time.
        """
        return lambda: self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.call_at(self._now + delay, callback, *args)

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        event = _Event(when, callback, args)
        heapq.heappush(self._queue, (when, next(self._sequence), event))
        return EventHandle(event, self)

    def call_at_batch(
        self, when: float, calls: Any
    ) -> EventHandle:
        """Run several ``(callback, args)`` pairs at ``when`` off one pop.

        The pairs execute in order, each counted, traced, and
        timeline-ticked exactly as if it had been scheduled individually
        with consecutive sequence numbers — one heap entry replaces N.
        Because consecutive same-time events can never interleave with
        other events (the heap orders by ``(time, sequence)``), the
        execution sequence is identical to N :meth:`call_at` calls; only
        the queue-depth gauge sees the shallower queue.  Cancelling the
        returned handle cancels the whole batch.
        """
        calls = tuple(calls)
        if not calls:
            raise ValueError("batch must contain at least one call")
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        first_callback, first_args = calls[0]
        event = _Event(when, first_callback, tuple(first_args), batch=calls[1:] or None)
        heapq.heappush(self._queue, (when, next(self._sequence), event))
        return EventHandle(event, self)

    def _note_dead(self) -> None:
        """A queued event was cancelled."""
        self._dead += 1
        self._maybe_purge()

    def _maybe_purge(self) -> None:
        """Drop the dead entries once they are over half of the heap.

        Called after each change that raises the dead share — a cancel,
        or a live pop — so the heap never holds more dead entries than
        live ones, past the ``_PURGE_MIN_DEAD`` floor.
        """
        queue = self._queue
        if self._dead > _PURGE_MIN_DEAD and 2 * self._dead > len(queue):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._dead = 0

    def _pop_dead(self) -> None:
        heapq.heappop(self._queue)
        self._dead -= 1

    def _pop_live(self) -> Optional[_Event]:
        if self.peek_time() is None:
            return None
        event = heapq.heappop(self._queue)[2]
        event.queued = False
        self._maybe_purge()
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            self._pop_dead()
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the next event (or batch).  False when the queue is empty.

        A batched event's sub-calls each get their own span, counter
        increment, and timeline tick, keeping the observable execution
        sequence identical to the unbatched schedule.
        """
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        if event.batch is None:
            calls = ((event.callback, event.args),)
        else:
            calls = ((event.callback, event.args),) + event.batch
        for callback, args in calls:
            self.events_processed += 1
            if _obs.is_enabled():
                # Observability reads state only (clock, queue depth) — it
                # can never perturb the deterministic execution it watches.
                with _obs.span(
                    "engine.event", "engine", callback=_callback_label(callback)
                ):
                    callback(*args)
                _obs.add("engine.events")
                _obs.gauge_set("engine.queue_depth", len(self._queue))
                _obs.timeline_tick(self._now)
            else:
                callback(*args)
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue, optionally stopping after ``max_events`` events."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                return

    def run_until(self, deadline: float) -> None:
        """Execute events with timestamps ≤ ``deadline``; advance clock to it.

        The clock always lands exactly on ``deadline`` so periodic processes
        can be chained across successive ``run_until`` calls.
        """
        if deadline < self._now:
            raise ValueError("deadline is in the past")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
        self._now = deadline

    def clear(self) -> None:
        """Drop all pending events (used when tearing a scenario down)."""
        for _, _, event in self._queue:
            event.queued = False
        self._queue.clear()
        self._dead = 0
