"""Unit tests for the protocol health monitors and the end-of-run verdict."""

import math

import pytest

from repro.obs.monitors import (
    AdmissionRejectionMonitor,
    ChainStallMonitor,
    CoverageMonitor,
    FairnessMonitor,
    IntervalDriftMonitor,
    MonitorEvent,
    MonitorSuite,
    QuarantineMonitor,
    StakeConcentrationMonitor,
    read_events,
    read_verdict,
    severity_rank,
)
from tests.helpers import make_config

pytestmark = pytest.mark.obs


def sample(t, **fields):
    base = {"t": t, "height": 0}
    base.update(fields)
    return base


class TestSeverityRank:
    def test_ordering(self):
        assert severity_rank("info") < severity_rank("warning") < severity_rank("critical")

    def test_unknown_rejects(self):
        with pytest.raises(ValueError):
            severity_rank("meltdown")


class TestTransitionMachinery:
    """Monitors alert on level *changes*, not on every degraded sample."""

    def test_one_event_per_transition_then_recovery(self):
        monitor = ChainStallMonitor(t0=10.0)  # stall_after = 50 s
        assert monitor.check(sample(0.0, height=1)) == []
        assert monitor.check(sample(40.0, height=1)) == []  # still within budget
        events = monitor.check(sample(60.0, height=1))
        assert [e.severity for e in events] == ["critical"]
        assert "stalled at height 1" in events[0].message
        # The stall persists: no repeat events.
        assert monitor.check(sample(90.0, height=1)) == []
        # Growth resumes: one info recovery, noting the previous level.
        recovery = monitor.check(sample(100.0, height=2))
        assert [e.severity for e in recovery] == ["info"]
        assert "recovered (was critical)" in recovery[0].message

    def test_event_scrubs_non_finite_values(self):
        event = MonitorEvent(
            time=1.0, monitor="m", severity="warning",
            message="x", value=math.inf, threshold=math.nan,
        )
        record = event.to_dict()
        assert record["value"] is None and record["threshold"] is None


class TestIntervalDrift:
    def test_quiet_until_enough_intervals(self):
        monitor = IntervalDriftMonitor(t0=20.0)
        degraded = sample(0.0, interval_ratio=3.0, intervals_seen=2)
        level, message, _, _ = monitor.level(degraded)
        assert level == "ok" and "not enough" in message

    def test_slow_and_fast_both_warn(self):
        monitor = IntervalDriftMonitor(t0=20.0)
        slow = monitor.level(sample(0.0, interval_ratio=2.5, intervals_seen=10))
        fast = monitor.level(sample(0.0, interval_ratio=0.3, intervals_seen=10))
        on_target = monitor.level(sample(0.0, interval_ratio=1.0, intervals_seen=10))
        assert slow[0] == "warning" and "slower" in slow[1]
        assert fast[0] == "warning" and "faster" in fast[1]
        assert on_target[0] == "ok"


class TestFairnessPressure:
    def test_saturation_is_critical(self):
        monitor = FairnessMonitor()
        level, message, _, _ = monitor.level(
            sample(0.0, saturated_nodes=2, fairness_max=1.0)
        )
        assert level == "critical" and "W_tol" in message

    def test_ninety_percent_full_warns(self):
        monitor = FairnessMonitor()
        assert monitor.level(sample(0.0, fairness_max=9.5))[0] == "warning"
        assert monitor.level(sample(0.0, fairness_max=4.0))[0] == "ok"

    def test_no_data_is_ok(self):
        monitor = FairnessMonitor()
        assert monitor.level(sample(0.0, fairness_max=None))[0] == "ok"


class TestStakeConcentration:
    def test_cap_breach_warns(self):
        monitor = StakeConcentrationMonitor(cap=0.8)
        assert monitor.level(sample(0.0, stake_topk_share=0.85))[0] == "warning"

    def test_drift_from_first_sample_baseline_warns(self):
        monitor = StakeConcentrationMonitor(cap=0.9, max_drift=0.2)
        assert monitor.level(sample(0.0, stake_topk_share=0.5))[0] == "ok"
        assert monitor.level(sample(10.0, stake_topk_share=0.65))[0] == "ok"
        level, message, _, _ = monitor.level(sample(20.0, stake_topk_share=0.75))
        assert level == "warning" and "drifted" in message

    def test_no_stake_data_is_ok(self):
        monitor = StakeConcentrationMonitor()
        assert monitor.level(sample(0.0, stake_topk_share=None))[0] == "ok"


class TestCoverage:
    def test_floors(self):
        monitor = CoverageMonitor(warn_floor=0.5, critical_floor=0.2)
        assert monitor.level(sample(0.0, coverage_recent=0.9))[0] == "ok"
        assert monitor.level(sample(0.0, coverage_recent=0.4))[0] == "warning"
        assert monitor.level(sample(0.0, coverage_recent=0.1))[0] == "critical"

    def test_no_blocks_yet_is_ok(self):
        monitor = CoverageMonitor()
        assert monitor.level(sample(0.0, coverage_recent=None))[0] == "ok"


class TestAdmissionRejections:
    def test_levels_on_the_delta_not_the_total(self):
        monitor = AdmissionRejectionMonitor()
        assert monitor.level(sample(0.0, chaos_rejections=0))[0] == "ok"
        assert monitor.level(sample(30.0, chaos_rejections=4))[0] == "warning"
        # The cumulative total stays high, but no *new* rejections: ok.
        assert monitor.level(sample(60.0, chaos_rejections=4))[0] == "ok"
        assert monitor.level(sample(90.0, chaos_rejections=9))[0] == "warning"

    def test_missing_field_is_ok(self):
        monitor = AdmissionRejectionMonitor()
        assert monitor.level(sample(0.0, chaos_rejections=None))[0] == "ok"


class TestQuarantine:
    def test_standing_state_warns_while_active(self):
        monitor = QuarantineMonitor()
        assert monitor.level(sample(0.0, chaos_quarantined=0))[0] == "ok"
        assert monitor.level(sample(30.0, chaos_quarantined=2))[0] == "warning"
        # Sticky for the run: stays warning while entries remain.
        assert monitor.level(sample(60.0, chaos_quarantined=2))[0] == "warning"

    def test_missing_field_is_ok(self):
        monitor = QuarantineMonitor()
        assert monitor.level(sample(0.0, chaos_quarantined=None))[0] == "ok"


class TestMonitorSuite:
    def test_for_config_builds_the_full_catalogue(self):
        suite = MonitorSuite.for_config(make_config(expected_block_interval=20.0))
        names = {m.name for m in suite.monitors}
        assert names == {
            "chain-stall", "interval-drift", "fairness-pressure",
            "stake-concentration", "coverage-drop",
            "admission-rejections", "peer-quarantine",
        }
        stall = next(m for m in suite.monitors if m.name == "chain-stall")
        assert stall.stall_after == pytest.approx(100.0)  # 5 · t0

    def test_healthy_run_verdict(self):
        suite = MonitorSuite.for_config(make_config())
        suite.observe(sample(0.0, height=1, coverage_recent=1.0))
        suite.observe(sample(30.0, height=2, coverage_recent=1.0))
        verdict = suite.verdict()
        assert verdict["status"] == "healthy"
        assert verdict["alerts"] == 0
        assert verdict["degraded_now"] == []
        assert set(verdict["by_monitor"]) == {m.name for m in suite.monitors}

    def test_recovery_does_not_erase_the_alert(self):
        suite = MonitorSuite([CoverageMonitor()])
        suite.observe(sample(0.0, coverage_recent=0.1))   # critical
        suite.observe(sample(30.0, coverage_recent=0.9))  # recovery
        verdict = suite.verdict()
        assert verdict["status"] == "critical"  # worst severity ever, sticky
        assert verdict["degraded_now"] == []    # but nothing degraded *now*
        assert verdict["alerts"] == 1
        assert verdict["events_total"] == 2
        entry = verdict["by_monitor"]["coverage-drop"]
        assert entry == {"events": 2, "worst": "critical", "current_level": "ok"}

    def test_still_degraded_monitors_are_listed(self):
        suite = MonitorSuite([CoverageMonitor(), FairnessMonitor()])
        suite.observe(sample(0.0, coverage_recent=0.4, fairness_max=1.0))
        verdict = suite.verdict()
        assert verdict["status"] == "warning"
        assert verdict["degraded_now"] == ["coverage-drop"]


class TestEventsRoundTrip:
    def test_write_then_read(self, tmp_path):
        suite = MonitorSuite([CoverageMonitor()])
        suite.observe(sample(10.0, coverage_recent=0.1))
        suite.observe(sample(40.0, coverage_recent=0.9))

        events_path = suite.write_events(tmp_path / "events.jsonl")
        events = read_events(events_path)
        assert [e["severity"] for e in events] == ["critical", "info"]
        assert events[0]["monitor"] == "coverage-drop"
        assert events[0]["time"] == 10.0

        verdict_path = suite.write_verdict(tmp_path / "verdict.json")
        assert read_verdict(verdict_path) == suite.verdict()
