"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import _PURGE_MIN_DEAD, EventEngine


class TestScheduling:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, order.append, "b")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(3.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self, engine):
        order = []
        for label in "abcde":
            engine.schedule(1.0, order.append, label)
        engine.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, engine):
        times = []
        engine.schedule(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [5.0]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_call_at_past_rejected(self, engine):
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.call_at(5.0, lambda: None)

    def test_nested_scheduling(self, engine):
        order = []

        def outer():
            order.append("outer")
            engine.schedule(1.0, lambda: order.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 2.0

    def test_run_until_stops_at_deadline(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(5.0, fired.append, 5)
        engine.run_until(3.0)
        assert fired == [1]
        assert engine.now == 3.0

    def test_run_until_includes_boundary(self, engine):
        fired = []
        engine.schedule(3.0, fired.append, 3)
        engine.run_until(3.0)
        assert fired == [3]

    def test_run_until_past_rejected(self, engine):
        engine.run_until(10.0)
        with pytest.raises(ValueError):
            engine.run_until(5.0)

    def test_run_max_events(self, engine):
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), fired.append, i)
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_events_processed_counter(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancelled_flag(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled

    def test_peek_skips_cancelled(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.peek_time() == 2.0

    def test_clear_drops_everything(self, engine):
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.clear()
        engine.run()
        assert fired == []

    def test_cancelled_entries_leave_the_heap(self, engine):
        fired = []
        handles = [engine.schedule(1.0 + k % 50, fired.append, k) for k in range(1000)]
        for k, handle in enumerate(handles):
            if k % 10:
                handle.cancel()
        assert engine.queue_depth <= 2 * 100 + _PURGE_MIN_DEAD
        engine.run()
        assert fired == sorted(range(0, 1000, 10), key=lambda k: (k % 50, k))

    def test_cancelling_a_fired_event_counts_no_dead_entry(self, engine):
        handles = [engine.schedule(1.0, lambda: None) for _ in range(3)]
        engine.run_until(1.0)
        for handle in handles:
            handle.cancel()
            handle.cancel()
        assert engine._dead == 0
        engine.schedule(1.0, lambda: None).cancel()
        assert engine._dead == 1


class TestDeterminism:
    def test_rng_reproducible_across_engines(self):
        a = EventEngine(seed=7)
        b = EventEngine(seed=7)
        assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]
        assert list(a.np_rng.uniform(size=5)) == list(b.np_rng.uniform(size=5))

    def test_different_seeds_differ(self):
        assert EventEngine(seed=1).rng.random() != EventEngine(seed=2).rng.random()
