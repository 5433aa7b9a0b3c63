"""Streaming telemetry ring + Prometheus exposition endpoint."""

import json
import urllib.request

import pytest

from repro.obs.live.expo import TelemetryServer, render_prometheus
from repro.obs.live.stream import (
    STREAM_NAME,
    STREAM_SCHEMA,
    TelemetryStream,
    read_stream,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import MonitorEvent
from repro.obs.runtime import ObsSession

pytestmark = pytest.mark.obs


class FakeMonitors:
    def __init__(self):
        self.events = []


def sample_at(t, **extra):
    return {"t": t, "height": int(t // 20), "queue_depth": 1, **extra}


class TestTelemetryStream:
    def test_header_then_sample_records(self, tmp_path):
        stream = TelemetryStream(tmp_path)
        stream.on_sample(sample_at(20.0))
        stream.close()

        records = read_stream(tmp_path)
        assert records[0]["kind"] == "header"
        assert records[0]["schema"] == STREAM_SCHEMA
        assert records[0]["node"] == "n0"
        assert records[1]["kind"] == "sample"
        assert records[1]["t"] == 20.0

    def test_counter_records_are_deltas(self, tmp_path):
        registry = MetricsRegistry()
        stream = TelemetryStream(tmp_path, node="n4")
        registry.counter("net.messages_sent").inc(3)
        stream.on_sample(sample_at(20.0), metrics=registry)
        # Unchanged counters produce no second counters record.
        stream.on_sample(sample_at(40.0), metrics=registry)
        registry.counter("net.messages_sent").inc(2)
        stream.on_sample(sample_at(60.0), metrics=registry)
        stream.close()

        counters = [r for r in read_stream(tmp_path) if r["kind"] == "counters"]
        assert [c["values"]["net.messages_sent"] for c in counters] == [3, 5]
        assert [c["t"] for c in counters] == [20.0, 60.0]

    def test_monitor_events_flush_once(self, tmp_path):
        monitors = FakeMonitors()
        stream = TelemetryStream(tmp_path)
        monitors.events.append(
            MonitorEvent(time=20.0, monitor="chain-stall", severity="warning",
                         message="no block for 3 intervals")
        )
        stream.on_sample(sample_at(20.0), monitors=monitors)
        stream.on_sample(sample_at(40.0), monitors=monitors)  # no new events
        stream.close()

        events = [r for r in read_stream(tmp_path) if r["kind"] == "event"]
        assert len(events) == 1
        assert events[0]["monitor"] == "chain-stall"

    def test_non_finite_sample_values_become_null(self, tmp_path):
        stream = TelemetryStream(tmp_path)
        stream.on_sample(sample_at(20.0, interval_ewma=float("nan")))
        stream.close()
        text = (tmp_path / STREAM_NAME).read_text(encoding="utf-8")
        assert "NaN" not in text
        sample = [r for r in read_stream(tmp_path) if r["kind"] == "sample"][0]
        assert sample["interval_ewma"] is None

    def test_rotation_keeps_a_bounded_two_segment_window(self, tmp_path):
        stream = TelemetryStream(tmp_path, max_bytes=2048)
        for i in range(200):
            stream.on_sample(sample_at(20.0 * i))
        stream.close()

        main = tmp_path / STREAM_NAME
        rotated = main.with_suffix(main.suffix + ".1")
        assert rotated.exists()
        assert main.stat().st_size <= 2048 + 512
        assert stream.rotations >= 1
        # Reader sees the rotated segment first, strictly ordered.
        ts = [r["t"] for r in read_stream(tmp_path) if r["kind"] == "sample"]
        assert ts == sorted(ts)
        # Rotated headers carry the rotation count.
        headers = [r for r in read_stream(tmp_path) if r["kind"] == "header"]
        assert headers[-1]["rotated"] == stream.rotations

    def test_torn_tail_is_tolerated(self, tmp_path):
        stream = TelemetryStream(tmp_path)
        stream.on_sample(sample_at(20.0))
        stream.close()
        with (tmp_path / STREAM_NAME).open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "sample", "t": 40')  # killed mid-append
        ts = [r["t"] for r in read_stream(tmp_path) if r["kind"] == "sample"]
        assert ts == [20.0]

    def test_tiny_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStream(tmp_path, max_bytes=16)


class TestPrometheusRendering:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("net.messages_sent").inc(7)
        registry.gauge("engine.queue_depth").set(3)
        registry.histogram("facility.solve_cost").record(2.0)
        registry.histogram("facility.solve_cost").record(4.0)
        text = render_prometheus(registry.snapshot())

        assert "# TYPE repro_net_messages_sent counter" in text
        assert "repro_net_messages_sent 7" in text
        assert "# TYPE repro_engine_queue_depth gauge" in text
        assert "repro_engine_queue_depth 3" in text
        assert "# TYPE repro_facility_solve_cost summary" in text
        assert "repro_facility_solve_cost_count 2" in text
        assert "repro_facility_solve_cost_sum 6.0" in text

    def test_extra_gauges_appended_and_none_skipped(self):
        text = render_prometheus(
            {"instruments": {}},
            extra={"timeline.height": 11, "timeline.mempool_depth": None},
        )
        assert "repro_timeline_height 11" in text
        assert "mempool" not in text


class TestTelemetryServer:
    @pytest.fixture()
    def session(self):
        session = ObsSession(timeline_interval=20.0, origin="n6")
        session.metrics.counter("net.messages_sent").inc(9)
        session.timeline.samples.append(
            sample_at(40.0, interval_ewma=float("nan"))
        )
        return session

    def test_metrics_and_snapshot_endpoints(self, session):
        server = TelemetryServer(session, port=0)
        port = server.start()
        try:
            url = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                text = response.read().decode("utf-8")
            assert "repro_net_messages_sent 9" in text
            assert "repro_timeline_height 2" in text  # from the sample
            with urllib.request.urlopen(f"{url}/snapshot", timeout=10) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["node"] == "n6"
            assert payload["sample"]["t"] == 40.0
            assert payload["sample"]["interval_ewma"] is None  # NaN scrubbed
            assert payload["counters"]["net.messages_sent"] == 9
            assert payload["spans_dropped"] == 0
        finally:
            server.stop()

    def test_unknown_path_is_404(self, session):
        server = TelemetryServer(session, port=0)
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=10
                )
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_a_failing_scrape_is_a_500_and_the_next_one_succeeds(self, session):
        snapshot = session.metrics.snapshot
        failures = iter(
            [RuntimeError("dictionary changed size during iteration")] * 5
            + [TypeError("Object of type set is not JSON serializable")]
        )

        def flaky_snapshot():
            error = next(failures, None)
            if error is not None:
                raise error
            return snapshot()

        session.metrics.snapshot = flaky_snapshot
        server = TelemetryServer(session, port=0)
        port = server.start()
        try:
            url = f"http://127.0.0.1:{port}"
            # Every retry of the racy read failed: this scrape alone fails.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{url}/metrics", timeout=10)
            assert excinfo.value.code == 500
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{url}/snapshot", timeout=10)
            assert excinfo.value.code == 500
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
                assert response.status == 200
                assert "repro_net_messages_sent 9" in response.read().decode("utf-8")
        finally:
            server.stop()

    def test_a_stream_that_never_opened_is_collected_quietly(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStream(tmp_path, max_bytes=16)
        stream = TelemetryStream.__new__(TelemetryStream)
        stream.__del__()  # no handle: nothing to close, nothing raised

    def test_session_start_helpers_wire_the_plane(self, tmp_path):
        session = ObsSession(timeline_interval=20.0, origin="n1")
        session.start_stream(tmp_path)
        port = session.start_telemetry()
        assert port > 0
        assert session.server.url.endswith(str(port))
        session.export(tmp_path)
        # export() tears the live plane down.
        assert session.server is None
        assert session.stream is None
        assert (tmp_path / STREAM_NAME).exists()
