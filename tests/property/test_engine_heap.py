"""The purging event heap runs exactly what the purge-free heap runs.

:class:`~repro.simnet.engine.EventEngine` counts the cancelled entries
still in its heap and, once they are over half of it, filters them out
and re-heapifies.  :class:`tests.helpers.ReferenceEngine` is the engine
before that change: cancelled entries stay until they come due.  Random
programs of ``call_at``, ``call_at_batch``, ``cancel`` (twice, and after
the event fired, included), ``step``, ``run_until``, ``clear`` and a
pickle round-trip mid-run drive both side by side; events themselves
cancel other events when they fire, so purges also happen inside a step.
After every operation the two must have run the same callbacks in the
same order, with the same ``events_processed`` and ``now``, and the
production heap must hold no more than ``2 × live + _PURGE_MIN_DEAD``
entries, with its dead-entry count exact.  The purge floor is drawn per
program (down to zero), so purges happen in programs of a few dozen
operations.
"""

from __future__ import annotations

import pickle
import random
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import engine as engine_module
from repro.simnet.engine import EventEngine
from tests.helpers import ReferenceEngine

pytestmark = pytest.mark.fastpath


class _World:
    """One engine, its handles and what its callbacks did.

    Pickled as a whole, so the handles stay bound to the engine's events
    and the callbacks to the log.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.handles: List = []
        self.log: List[int] = []
        #: label → handles the event cancels when it fires, counted back
        #: from the newest.
        self.cancels_on_fire: Dict[int, List[int]] = {}

    def newest(self, back: int):
        return self.handles[-1 - back % len(self.handles)]

    def fire(self, label: int) -> None:
        self.log.append(label)
        for back in self.cancels_on_fire.get(label, ()):
            self.newest(back).cancel()


# Timers are armed further ahead than the clock moves per operation and
# cancels mostly hit recent handles, so the heap fills with dead entries
# the way re-armed mining timers fill it.  An operation is a kind and
# three parameters; each kind reads the ones it needs.
_operation = st.tuples(
    st.sampled_from(
        ["call_at"] * 4
        + ["cancel"] * 3
        + ["batch", "step", "run_until", "run_until", "clear", "pickle"]
    ),
    st.integers(0, 20),
    st.integers(1, 4),
    st.lists(st.integers(0, 12), max_size=2),
)


def _check(world: _World, oracle: _World, floor: int) -> None:
    engine = world.engine
    assert world.log == oracle.log
    assert engine.events_processed == oracle.engine.events_processed
    assert engine.now == oracle.engine.now
    assert [h.cancelled for h in world.handles] == [h.cancelled for h in oracle.handles]
    queue = engine._queue
    dead = sum(event.cancelled for event in queue)
    assert engine._dead == dead
    assert len(queue) <= 2 * (len(queue) - dead) + floor


@settings(max_examples=150, deadline=None)
@given(
    floor=st.sampled_from([0, 0, 1, 3, 100]),
    program=st.lists(_operation, min_size=40, max_size=160),
)
def test_purging_heap_matches_the_purge_free_heap(floor, program):
    with mock.patch.object(engine_module, "_PURGE_MIN_DEAD", floor):
        world, oracle = _World(EventEngine(seed=1)), _World(ReferenceEngine())
        label = 0
        for kind, number, size, cancels in program:
            if kind == "call_at":
                for side in (world, oracle):
                    side.cancels_on_fire[label] = cancels
                    side.handles.append(
                        side.engine.call_at(side.engine.now + number, side.fire, label)
                    )
                label += 1
            elif kind == "batch":
                for side in (world, oracle):
                    calls = [(side.fire, (label + k,)) for k in range(size)]
                    side.handles.append(
                        side.engine.call_at_batch(side.engine.now + number, calls)
                    )
                label += size
            elif kind == "cancel":
                if world.handles:
                    for side in (world, oracle):
                        side.newest(number).cancel()
            elif kind == "step":
                assert world.engine.step() == oracle.engine.step()
            elif kind == "run_until":
                for side in (world, oracle):
                    side.engine.run_until(side.engine.now + number % 4)
            elif kind == "clear":
                for side in (world, oracle):
                    side.engine.clear()
            else:
                world = pickle.loads(pickle.dumps(world))
            _check(world, oracle, floor)
        for side in (world, oracle):
            side.engine.run_until(side.engine.now + 100)
        _check(world, oracle, floor)


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 80),
    share=st.floats(0.5, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_purge_keeps_many_survivors_in_heap_order(size, share, seed):
    # Many live entries left behind by one purge: the filtered list is a
    # heap again only after re-heapifying.
    draw = random.Random(seed)
    times = [float(draw.randint(0, 30)) for _ in range(size)]
    cancelled = draw.sample(range(size), int(share * size))
    with mock.patch.object(engine_module, "_PURGE_MIN_DEAD", 0):
        world, oracle = _World(EventEngine(seed=1)), _World(ReferenceEngine())
        for side in (world, oracle):
            for label, when in enumerate(times):
                side.handles.append(side.engine.call_at(when, side.fire, label))
            for position in cancelled:
                side.handles[position].cancel()
        _check(world, oracle, 0)
        for side in (world, oracle):
            side.engine.run_until(31.0)
        _check(world, oracle, 0)
