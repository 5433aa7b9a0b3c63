"""The `repro top` view over a telemetry stream or endpoint."""

import pytest

from repro.cli import main
from repro.obs.live.expo import TelemetryServer
from repro.obs.live.stream import TelemetryStream
from repro.obs.live.top import load_top_view, render_top
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import MonitorEvent
from repro.obs.runtime import ObsSession

pytestmark = pytest.mark.obs


class TestTopView:
    def _stream_dir(self, tmp_path):
        registry = MetricsRegistry()

        class Monitors:
            events = [
                MonitorEvent(time=40.0, monitor="chain-stall",
                             severity="warning", message="stalled")
            ]

        registry.counter("net.messages_sent").inc(10)
        stream = TelemetryStream(tmp_path, node="n0")
        stream.on_sample({"t": 20.0, "height": 1, "queue_depth": 0},
                         metrics=registry, monitors=Monitors())
        registry.counter("net.messages_sent").inc(30)
        stream.on_sample({"t": 40.0, "height": 2, "queue_depth": 1},
                         metrics=registry, monitors=Monitors())
        stream.close()
        return tmp_path

    def test_view_from_stream_directory(self, tmp_path):
        view = load_top_view(str(self._stream_dir(tmp_path)))
        assert view["node"] == "n0"
        assert view["sample"]["height"] == 2
        assert view["counters"]["net.messages_sent"] == 40
        # 30 new messages over 20 logical seconds.
        assert view["msgs_per_sec"] == pytest.approx(1.5)
        assert [e["monitor"] for e in view["events"]] == ["chain-stall"]

    def test_view_from_stream_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_top_view(str(tmp_path))

    def test_view_from_snapshot_url(self, tmp_path):
        session = ObsSession(timeline_interval=20.0, origin="n3")
        session.metrics.counter("net.messages_sent").inc(8)
        session.timeline.samples.append({"t": 60.0, "height": 3})
        server = TelemetryServer(session, port=0)
        port = server.start()
        try:
            view = load_top_view(f"http://127.0.0.1:{port}")
            assert view["node"] == "n3"
            assert view["sample"]["height"] == 3
            assert view["counters"]["net.messages_sent"] == 8
        finally:
            server.stop()

    def test_render_top_single_node(self, tmp_path):
        rendered = render_top(load_top_view(str(self._stream_dir(tmp_path))))
        assert "repro top" in rendered
        assert "chain height" in rendered
        assert "msgs/sec" in rendered
        assert "chain-stall" in rendered

    def test_top_cli_renders_once(self, tmp_path, capsys):
        self._stream_dir(tmp_path)
        assert main(["top", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "chain height" in out

    def test_top_cli_missing_source_fails(self, tmp_path, capsys):
        assert main(["top", str(tmp_path)]) == 2
