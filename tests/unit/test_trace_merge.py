"""Multi-process trace stitching, and `repro trace merge` over obs dirs
whose metric names differ only by a prefix (``c0_``, ``c1_``) that the
merge must keep apart."""

import json

import pytest

from repro.cli import main
from repro.obs.export import write_perfetto_jsonl
from repro.obs.live.context import (
    MERGED_TRACE_NAME,
    merge_trace_events,
    merge_trace_files,
    read_merged_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import METRICS_NAME, TRACE_NAME
from repro.obs.tracer import TraceContext, Tracer

pytestmark = pytest.mark.obs


def traced_pair(tmp_path):
    """Two per-process obs dirs with one cross-process trace between them."""
    sender = Tracer(origin="n0")
    with sender.span("net.timer", "net"):
        with sender.span("consensus.mine", "pos"):
            pass
        ctx = sender.current_context()
    # An unrelated local-only trace on the sender.
    with sender.span("engine.tick", "engine"):
        pass

    receiver = Tracer(origin="n1")
    with receiver.remote_span("net.deliver", "net", ctx):
        with receiver.span("node.handle", "node"):
            pass

    dirs = []
    for name, tracer in (("node0", sender), ("node1", receiver)):
        directory = tmp_path / name
        directory.mkdir()
        write_perfetto_jsonl(
            tracer.finished, directory / TRACE_NAME, origin=tracer.origin
        )
        dirs.append(directory)
    return dirs, ctx


class TestMergeTraceFiles:
    def test_stats_count_cross_process_traces(self, tmp_path):
        dirs, ctx = traced_pair(tmp_path)
        stats = merge_trace_files(dirs)
        assert stats["files"] == 2
        assert stats["origins"] == ["n0", "n1"]
        assert stats["events"] == 5
        # Two distinct trace ids: the cross-process one plus the local-only
        # engine.tick; net.deliver joined the sender's trace, not a new one.
        assert stats["traces"] == 2
        assert stats["cross_process_traces"] == 1
        assert stats["remote_linked_spans"] == 1

    def test_merged_file_has_process_tracks_and_origin_args(self, tmp_path):
        dirs, ctx = traced_pair(tmp_path)
        stats = merge_trace_files(dirs, out=tmp_path / MERGED_TRACE_NAME)
        merged = read_merged_trace(stats["out"])

        names = {
            e["args"]["name"] for e in merged
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert names == {"repro node n0", "repro node n1"}
        spans = [e for e in merged if e.get("ph") == "X"]
        assert {e["args"]["origin"] for e in spans} == {"n0", "n1"}
        # Both halves of the cross-process trace share the trace id, and
        # the receive side still links the exact send-side span.
        halves = [e for e in spans if e["args"].get("trace_id") == ctx.trace_id]
        assert {e["args"]["origin"] for e in halves} == {"n0", "n1"}
        deliver = next(e for e in spans if e["name"] == "net.deliver")
        assert deliver["args"]["remote_parent"] == ctx.span_id
        assert deliver["args"]["remote_origin"] == "n0"

    def test_overlapping_files_merge_without_double_counting(self, tmp_path):
        """The same process file listed twice still yields one pid."""
        dirs, _ = traced_pair(tmp_path)
        stats = merge_trace_files([dirs[0], dirs[0], dirs[1]])
        assert stats["origins"] == ["n0", "n1"]
        assert stats["files"] == 3
        # Duplicate events do appear (3 + 3 + 2) but under one n0 track.
        assert stats["events"] == 8

    def test_files_without_origin_metadata_get_positional_names(self, tmp_path):
        events = [
            {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1,
             "args": {"trace_id": "x:1"}}
        ]
        path = tmp_path / "anon.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        stats = merge_trace_files([path])
        assert stats["origins"] == ["p0"]

    def test_merge_trace_events_empty(self):
        merged, stats = merge_trace_events([])
        assert merged == []
        assert stats["cross_process_traces"] == 0


class TestTraceMergeCli:
    def _prefixed_obs_dir(self, directory, prefixes, origin):
        """An obs dir holding one ``net.messages_sent`` counter per name prefix."""
        directory.mkdir()
        registry = MetricsRegistry()
        for prefix in prefixes:
            registry.counter(f"{prefix}net.messages_sent").inc(5)
            registry.counter("engine.events").inc(10)
        registry.write_json(directory / METRICS_NAME)
        tracer = Tracer(origin=origin)
        with tracer.span("engine.tick", "engine"):
            pass
        write_perfetto_jsonl(tracer.finished, directory / TRACE_NAME, origin=origin)

    def test_merges_prefixed_metrics_and_stitches_traces(self, tmp_path, capsys):
        self._prefixed_obs_dir(tmp_path / "shard_a", ["c0_", "c1_"], "n0")
        self._prefixed_obs_dir(tmp_path / "shard_b", ["c0_"], "n1")
        out = tmp_path / "merged_metrics.json"
        trace_out = tmp_path / "merged_trace.json"

        assert main([
            "trace", "merge",
            str(tmp_path / "shard_a"), str(tmp_path / "shard_b"),
            "--out", str(out),
            "--trace-out", str(trace_out),
        ]) == 0

        merged = json.loads(out.read_text(encoding="utf-8"))
        instruments = merged["instruments"]
        # Same-named counters add across sources; prefixed names stay apart.
        assert instruments["c0_net.messages_sent"]["value"] == 10
        assert instruments["c1_net.messages_sent"]["value"] == 5
        assert instruments["engine.events"]["value"] == 30
        # And the traces were stitched into one two-origin file.
        spans = [
            e for e in read_merged_trace(trace_out) if e.get("ph") == "X"
        ]
        assert {e["args"]["origin"] for e in spans} == {"n0", "n1"}
        captured = capsys.readouterr().out
        assert "cross-process traces: 0" in captured

    def test_trace_out_with_no_trace_files_fails(self, tmp_path):
        source = tmp_path / "metrics_only"
        source.mkdir()
        MetricsRegistry().write_json(source / METRICS_NAME)
        with pytest.raises(SystemExit):
            main([
                "trace", "merge", str(source),
                "--out", str(tmp_path / "m.json"),
                "--trace-out", str(tmp_path / "t.json"),
            ])
