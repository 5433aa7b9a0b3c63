"""The CLI observability surface: `--obs` on the run verbs, report, trace verbs."""

import json

import pytest

from repro.chaos.runner import CHAOS_VERDICT_NAME
from repro.cli import main
from repro.obs.export import read_trace_events
from repro.obs.monitors import SEVERITIES, VERDICT_NAME, read_verdict
from repro.obs.runtime import METRICS_NAME, TRACE_NAME
from repro.obs.timeline import TIMELINE_NAME, read_timeline

pytestmark = pytest.mark.obs

RUN_ARGS = [
    "run", "--nodes", "6", "--minutes", "3", "--seed", "11",
    "--rate", "1.0", "--block-interval", "20",
]


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory):
    """One CLI run with --obs, shared by the verb tests below."""
    target = tmp_path_factory.mktemp("obs-run")
    assert main(RUN_ARGS + ["--obs", str(target)]) == 0
    return target


class TestRunWithObs:
    def test_emits_trace_and_metrics(self, obs_dir):
        trace_path = obs_dir / TRACE_NAME
        metrics_path = obs_dir / METRICS_NAME
        assert trace_path.exists() and metrics_path.exists()

        events = read_trace_events(trace_path)
        complete = [e for e in events if e.get("ph") == "X"]
        assert len(complete) > 100
        assert {"engine", "facility", "run"} <= {e["cat"] for e in complete}

        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro.obs.metrics/v1"
        names = set(metrics["instruments"])
        assert "engine.events" in names
        assert any(n.startswith("pos.") for n in names)
        assert any(n.startswith("facility.") for n in names)

    def test_obs_flag_leaves_metrics_record_unchanged(self, tmp_path):
        plain = tmp_path / "plain.json"
        observed = tmp_path / "observed.json"
        assert main(RUN_ARGS + ["--json", str(plain)]) == 0
        assert main(
            RUN_ARGS + ["--json", str(observed), "--obs", str(tmp_path / "obs")]
        ) == 0
        assert json.loads(plain.read_text()) == json.loads(observed.read_text())


class TestRunTimelineArtefacts:
    def test_obs_run_writes_timeline_and_verdict(self, obs_dir):
        header, samples = read_timeline(obs_dir / TIMELINE_NAME)
        assert header["schema"] == "repro.obs.timeline/v1"
        assert header["interval"] == 20.0  # defaults to --block-interval
        assert len(samples) > 5
        assert samples[-1]["height"] >= 1
        verdict = read_verdict(obs_dir / VERDICT_NAME)
        assert verdict["schema"] == "repro.obs.verdict/v1"
        assert verdict["status"] in ("healthy", "warning", "critical")

    def test_obs_sample_overrides_the_cadence(self, obs_dir, tmp_path):
        target = tmp_path / "fast"
        assert main(RUN_ARGS + ["--obs", str(target), "--obs-sample", "5"]) == 0
        header, samples = read_timeline(target / TIMELINE_NAME)
        assert header["interval"] == 5.0
        # Ticks ride on engine events, so a finer grid can't beat the
        # event density — but it must sample at least as often as the
        # default 20 s cadence did.
        _, default_samples = read_timeline(obs_dir / TIMELINE_NAME)
        assert len(samples) >= len(default_samples)


class TestResumeWithObs:
    def test_resumed_segment_exports_timeline_and_verdict(self, tmp_path):
        run_dir = tmp_path / "durable"
        obs_dir = tmp_path / "obs"
        # First leg: plain durable run, paused partway.
        assert main(
            RUN_ARGS + ["--persist", str(run_dir), "--stop-after", "90"]
        ) == 0
        # Second leg: resume under observation.
        assert main([
            "resume", str(run_dir),
            "--obs", str(obs_dir),
            "--obs-timebase", "sim",
            "--obs-sample", "10",
        ]) == 0

        assert (obs_dir / TRACE_NAME).exists()
        header, samples = read_timeline(obs_dir / TIMELINE_NAME)
        assert header["interval"] == 10.0
        # Sampling covers only the resumed segment (t > 90 s).
        assert samples and all(s["t"] > 90.0 for s in samples)
        verdict = read_verdict(obs_dir / VERDICT_NAME)
        assert verdict["status"] in ("healthy", "warning", "critical")

    def test_resume_without_obs_stays_dark(self, tmp_path):
        run_dir = tmp_path / "durable"
        assert main(
            RUN_ARGS + ["--persist", str(run_dir), "--stop-after", "90"]
        ) == 0
        assert main(["resume", str(run_dir)]) == 0
        assert not list(tmp_path.glob("**/timeline.jsonl"))


class TestReportVerb:
    def test_report_renders_and_writes_html(self, obs_dir, capsys):
        assert main(["report", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "chain height" in out
        html_path = obs_dir / "report.html"
        assert html_path.exists()
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_no_html_skips_the_file(self, obs_dir, tmp_path, capsys):
        custom = tmp_path / "custom.html"
        assert main(["report", str(obs_dir), "--html", str(custom)]) == 0
        assert custom.exists()
        assert main(["report", str(obs_dir), "--no-html"]) == 0
        assert "wrote" not in capsys.readouterr().out.splitlines()[-1]

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err


class TestTraceVerbs:
    def test_summary_prints_span_and_counter_tables(self, obs_dir, capsys):
        assert main(["trace", "summary", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine.event" in out
        assert "engine.events" in out  # the counters table

    def test_export_writes_strict_json_array(self, obs_dir, tmp_path):
        out = tmp_path / "strict.json"
        assert main(["trace", "export", str(obs_dir), "--out", str(out)]) == 0
        events = json.loads(out.read_text())
        assert isinstance(events, list)
        assert any(e.get("ph") == "X" for e in events)

    def test_merge_adds_metrics_across_runs(self, obs_dir, tmp_path):
        out = tmp_path / "merged.json"
        assert main([
            "trace", "merge", str(obs_dir), str(obs_dir), "--out", str(out),
        ]) == 0
        merged = json.loads(out.read_text())
        single = json.loads((obs_dir / METRICS_NAME).read_text())
        assert (
            merged["instruments"]["engine.events"]["value"]
            == 2 * single["instruments"]["engine.events"]["value"]
        )


class TestObservedVerbs:
    """`--obs DIR` through `main` on the chaos verb."""

    SMALL = ["--nodes", "4", "--minutes", "3", "--seed", "3",
             "--block-interval", "30"]

    def _assert_obs_artefacts(self, directory):
        assert read_trace_events(directory / TRACE_NAME)
        metrics = json.loads((directory / METRICS_NAME).read_text())
        assert metrics["schema"] == "repro.obs.metrics/v1"
        _, samples = read_timeline(directory / TIMELINE_NAME)
        assert samples
        verdict = read_verdict(directory / VERDICT_NAME)
        assert verdict["status"] in {"healthy", *SEVERITIES}

    def test_chaos_run_writes_obs_and_chaos_verdict(self, tmp_path, capsys):
        target = tmp_path / "chaos-obs"
        assert main(["chaos", "run", *self.SMALL,
                     "--adversary", "spammer=3", "--obs", str(target)]) == 0
        self._assert_obs_artefacts(target)
        chaos = json.loads((target / CHAOS_VERDICT_NAME).read_text())
        assert chaos["adversaries"] == {"spammer": [3]}
        assert f"wrote {target / CHAOS_VERDICT_NAME}" in capsys.readouterr().out
