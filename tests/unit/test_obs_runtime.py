"""The process-global obs switch, hook helpers, and the solver decorator."""

import json
import math

import pytest

from repro.obs import runtime
from repro.obs.runtime import (
    METRICS_NAME,
    TRACE_NAME,
    active_session,
    add,
    disable,
    enable,
    gauge_set,
    is_enabled,
    observe,
    set_sim_clock,
    span,
    traced_solver,
)
from repro.obs.tracer import NULL_SPAN

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def obs_off_after_each_test():
    """Never leak an enabled global session into other tests."""
    yield
    disable()


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert not is_enabled()
        assert active_session() is None

    def test_enable_returns_live_session(self):
        session = enable()
        assert is_enabled()
        assert active_session() is session
        disable()
        assert not is_enabled()

    def test_hooks_are_noops_while_disabled(self):
        handle = span("x", "cat")
        assert handle is NULL_SPAN
        add("nothing")
        observe("nothing", 1.0)
        gauge_set("nothing", 1.0)
        session = enable()
        assert len(session.metrics) == 0

    def test_hooks_record_while_enabled(self):
        session = enable()
        with span("work", "engine", detail=1):
            add("events", 2)
            observe("latency", 0.5)
            gauge_set("depth", 7)
        assert session.metrics.counter("events").value == 2
        assert session.metrics.histogram("latency").count == 1
        assert session.metrics.gauge("depth").value == 7.0
        assert [s.name for s in session.tracer.finished] == ["work"]

    def test_set_sim_clock_attaches_to_live_tracer(self):
        session = enable()
        set_sim_clock(lambda: 42.0)
        with span("tick") as handle:
            pass
        assert handle.span.sim_start == 42.0
        disable()
        set_sim_clock(lambda: 0.0)  # no-op without a session

    def test_export_writes_both_artifacts(self, tmp_path):
        session = enable()
        with span("work", "engine"):
            add("events")
        target = session.export(tmp_path / "obs")
        trace = (target / TRACE_NAME).read_text()
        assert trace.startswith("[\n")
        metrics = json.loads((target / METRICS_NAME).read_text())
        assert metrics["instruments"]["events"]["value"] == 1


class FakeProblem:
    num_facilities = 6
    num_clients = 6


class FakeSolution:
    replica_count = 2

    def __init__(self, cost=12.5):
        self._cost = cost

    def total_cost(self, problem):
        return self._cost


class TestTracedSolver:
    def test_disabled_is_a_passthrough(self):
        calls = []

        @traced_solver("fake")
        def solve(problem):
            calls.append(problem)
            return FakeSolution()

        result = solve(FakeProblem())
        assert calls and isinstance(result, FakeSolution)

    def test_enabled_records_span_counter_and_cost(self):
        session = enable()

        @traced_solver("fake")
        def solve(problem):
            return FakeSolution(cost=12.5)

        solve(FakeProblem())
        (span_record,) = session.tracer.finished
        assert span_record.name == "facility.solve"
        assert span_record.attrs["solver"] == "fake"
        assert span_record.attrs["facilities"] == 6
        assert span_record.attrs["cost"] == 12.5
        assert span_record.attrs["replicas"] == 2
        assert session.metrics.counter("facility.fake.solves").value == 1
        assert session.metrics.histogram("facility.solve_cost").count == 1

    def test_infinite_cost_skips_the_histogram(self):
        session = enable()

        @traced_solver("fake")
        def solve(problem):
            return FakeSolution(cost=math.inf)

        solve(FakeProblem())
        assert "facility.solve_cost" not in session.metrics.names()

    def test_wraps_preserves_identity(self):
        @traced_solver("fake")
        def solve_example(problem):
            """docstring survives"""
            return FakeSolution()

        assert solve_example.__name__ == "solve_example"
        assert "docstring" in solve_example.__doc__
