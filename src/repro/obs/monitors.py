"""Online protocol health monitors over the timeline sample stream.

Each monitor watches one invariant the paper's design promises and emits
structured events on *transitions* (healthy → degraded and back), not on
every degraded sample — a stalled chain produces one ``critical`` event
and one ``info`` recovery event, not a thousand repeats.  The invariant
catalogue (see DESIGN.md §9):

* **chain-stall** — the longest chain must keep growing; the PoS race
  (Eq. 7–9) guarantees some node's hit eventually clears the rising
  target, so no growth for many multiples of ``t0`` means the protocol
  (or every miner) is down.
* **interval-drift** — Eq. 14 chooses ``B = M/((n+1)·t0·Ū)`` precisely
  so the expected inter-block time is ``t0``; a sustained EWMA outside a
  tolerance band around ``t0`` means the amendment is mis-tracking.
* **fairness-pressure** — Eq. 1's cost ``f_i = W(i)/(W_tol(i) − W(i))``
  blows up as a node fills; the allocator should keep every node away
  from saturation.
* **stake-concentration** — storage incentives feed stake (Section
  IV-C); runaway top-k stake share would collapse PoS to oligarchy.
* **coverage-drop** — recent blocks are supposed to be pervasively
  stored (Section IV-C); a coverage collapse defeats offline recovery.
* **admission-rejections** — honest traffic passes every admission
  check, so any rejection means forged or flooded inbound messages
  (DESIGN.md §11's threat model); the monitor flags windows in which
  rejections are actively accruing.
* **peer-quarantine** — peers past the misbehavior threshold are cut
  off; any active quarantine entry is a standing degradation.

:class:`MonitorSuite` fans samples out to every monitor, accumulates the
events, and renders a machine-readable end-of-run :meth:`verdict`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import write_json

PathLike = Union[str, Path]

EVENTS_NAME = "events.jsonl"
VERDICT_NAME = "verdict.json"
EVENTS_SCHEMA = "repro.obs.events/v1"
VERDICT_SCHEMA = "repro.obs.verdict/v1"

#: Severity names in increasing order of badness.
SEVERITIES = ("info", "warning", "critical")


def severity_rank(severity: str) -> int:
    """0 = info, 1 = warning, 2 = critical; unknown severities reject."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(f"unknown severity {severity!r}") from None


@dataclass(frozen=True)
class MonitorEvent:
    """One structured health event."""

    time: float
    monitor: str
    severity: str
    message: str
    value: Optional[float] = None
    threshold: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        def scrub(v: Any) -> Any:
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        return {
            "time": scrub(self.time),
            "monitor": self.monitor,
            "severity": self.severity,
            "message": self.message,
            "value": scrub(self.value),
            "threshold": scrub(self.threshold),
        }


class Monitor:
    """Base class: a named level machine emitting events on transitions.

    Subclasses implement :meth:`level` returning the current severity
    level ("ok", "warning", or "critical") plus a description; the base
    class turns level *changes* into events (escalations at the new
    severity, de-escalations to "ok" as ``info`` recoveries).
    """

    name = "monitor"

    def __init__(self) -> None:
        self._level = "ok"

    def level(self, sample: Dict[str, Any]) -> tuple:
        """(level, message, value, threshold) for this sample."""
        raise NotImplementedError

    def check(self, sample: Dict[str, Any]) -> List[MonitorEvent]:
        level, message, value, threshold = self.level(sample)
        if level == self._level:
            return []
        previous, self._level = self._level, level
        if level == "ok":
            return [
                MonitorEvent(
                    time=sample["t"],
                    monitor=self.name,
                    severity="info",
                    message=f"recovered (was {previous}): {message}",
                    value=value,
                    threshold=threshold,
                )
            ]
        return [
            MonitorEvent(
                time=sample["t"],
                monitor=self.name,
                severity=level,
                message=message,
                value=value,
                threshold=threshold,
            )
        ]


class ChainStallMonitor(Monitor):
    """Critical when the longest chain stops growing for ``factor · t0``."""

    name = "chain-stall"

    def __init__(self, t0: float, factor: float = 5.0):
        super().__init__()
        self.stall_after = factor * t0
        self._last_height: Optional[int] = None
        self._last_progress = 0.0

    def level(self, sample: Dict[str, Any]) -> tuple:
        height = sample["height"]
        now = sample["t"]
        if self._last_height is None or height > self._last_height:
            self._last_height = height
            self._last_progress = now
        stalled_for = now - self._last_progress
        if stalled_for > self.stall_after:
            return (
                "critical",
                f"chain stalled at height {height} for {stalled_for:.0f}s",
                stalled_for,
                self.stall_after,
            )
        return ("ok", f"chain growing (height {height})", stalled_for, self.stall_after)


class IntervalDriftMonitor(Monitor):
    """Warning when the interval EWMA leaves the band around ``t0`` (Eq. 14)."""

    name = "interval-drift"

    def __init__(
        self,
        t0: float,
        low_ratio: float = 0.5,
        high_ratio: float = 2.0,
        min_intervals: int = 5,
    ):
        super().__init__()
        self.t0 = t0
        self.low_ratio = low_ratio
        self.high_ratio = high_ratio
        self.min_intervals = min_intervals

    def level(self, sample: Dict[str, Any]) -> tuple:
        ratio = sample.get("interval_ratio")
        seen = sample.get("intervals_seen", 0)
        if ratio is None or not math.isfinite(ratio) or seen < self.min_intervals:
            return ("ok", "not enough intervals yet", ratio, None)
        if ratio > self.high_ratio:
            return (
                "warning",
                f"blocks {ratio:.2f}× slower than t0={self.t0:g}s",
                ratio,
                self.high_ratio,
            )
        if ratio < self.low_ratio:
            return (
                "warning",
                f"blocks {1 / ratio:.2f}× faster than t0={self.t0:g}s",
                ratio,
                self.low_ratio,
            )
        return ("ok", f"interval EWMA at {ratio:.2f}×t0", ratio, self.high_ratio)


class FairnessMonitor(Monitor):
    """Fairness-degree pressure (Eq. 1): warn near W_tol, critical at it.

    ``f_i = W/(W_tol − W) ≥ 9`` means the node is ≥ 90 % full; a
    saturated node makes the fairness cost infinite and the allocator's
    objective meaningless for that node.
    """

    name = "fairness-pressure"

    def __init__(self, warn_fairness: float = 9.0):
        super().__init__()
        self.warn_fairness = warn_fairness

    def level(self, sample: Dict[str, Any]) -> tuple:
        saturated = sample.get("saturated_nodes", 0)
        fairness = sample.get("fairness_max")
        if saturated:
            return (
                "critical",
                f"{saturated} node(s) at W_tol (fairness cost infinite)",
                float(saturated),
                0.0,
            )
        if fairness is not None and math.isfinite(fairness):
            if fairness >= self.warn_fairness:
                return (
                    "warning",
                    f"max fairness degree {fairness:.1f} (node ≥ 90% full)",
                    fairness,
                    self.warn_fairness,
                )
            return ("ok", f"max fairness degree {fairness:.2f}", fairness, self.warn_fairness)
        return ("ok", "no fairness data", None, self.warn_fairness)


class StakeConcentrationMonitor(Monitor):
    """Warn when top-k stake share breaches a cap or drifts from baseline."""

    name = "stake-concentration"

    def __init__(self, cap: float = 0.8, max_drift: float = 0.2):
        super().__init__()
        self.cap = cap
        self.max_drift = max_drift
        self._baseline: Optional[float] = None

    def level(self, sample: Dict[str, Any]) -> tuple:
        share = sample.get("stake_topk_share")
        if share is None or not math.isfinite(share):
            return ("ok", "no stake data", None, self.cap)
        if self._baseline is None:
            self._baseline = share
        if share > self.cap:
            return (
                "warning",
                f"top-k stake share {share:.2f} over cap {self.cap:.2f}",
                share,
                self.cap,
            )
        drift = share - self._baseline
        if drift > self.max_drift:
            return (
                "warning",
                f"top-k stake share drifted +{drift:.2f} from baseline "
                f"{self._baseline:.2f}",
                share,
                self._baseline + self.max_drift,
            )
        return ("ok", f"top-k stake share {share:.2f}", share, self.cap)


class CoverageMonitor(Monitor):
    """Recent-block coverage floor (Section IV-C pervasiveness)."""

    name = "coverage-drop"

    def __init__(self, warn_floor: float = 0.5, critical_floor: float = 0.2):
        super().__init__()
        self.warn_floor = warn_floor
        self.critical_floor = critical_floor

    def level(self, sample: Dict[str, Any]) -> tuple:
        coverage = sample.get("coverage_recent")
        if coverage is None or not math.isfinite(coverage):
            return ("ok", "no blocks yet", None, self.warn_floor)
        if coverage < self.critical_floor:
            return (
                "critical",
                f"recent-block coverage {coverage:.2f} below {self.critical_floor:.2f}",
                coverage,
                self.critical_floor,
            )
        if coverage < self.warn_floor:
            return (
                "warning",
                f"recent-block coverage {coverage:.2f} below {self.warn_floor:.2f}",
                coverage,
                self.warn_floor,
            )
        return ("ok", f"recent-block coverage {coverage:.2f}", coverage, self.warn_floor)


class AdmissionRejectionMonitor(Monitor):
    """Warn while admission rejections are actively accruing.

    The counter is cumulative across the cluster, so the monitor levels
    on its *delta* between samples: an attack window shows up as one
    warning event when rejections start and one recovery event after the
    adversary stops.  Honest runs never reject, so this never fires.
    """

    name = "admission-rejections"

    def __init__(self) -> None:
        super().__init__()
        self._last = 0

    def level(self, sample: Dict[str, Any]) -> tuple:
        total = sample.get("chaos_rejections")
        if total is None:
            return ("ok", "no admission data", None, None)
        fresh = total - self._last
        self._last = total
        if fresh > 0:
            return (
                "warning",
                f"{fresh} inbound message(s) rejected since last sample "
                f"({total} total)",
                float(fresh),
                0.0,
            )
        return ("ok", f"no new rejections ({total} total)", 0.0, 0.0)


class QuarantineMonitor(Monitor):
    """Warn while any peer-quarantine entry is active.

    Quarantine is sticky for the rest of the run, so unlike the
    rejection monitor this reflects a *standing* state, not a rate.
    """

    name = "peer-quarantine"

    def level(self, sample: Dict[str, Any]) -> tuple:
        count = sample.get("chaos_quarantined")
        if count is None:
            return ("ok", "no admission data", None, None)
        if count > 0:
            return (
                "warning",
                f"{count} peer-quarantine entr{'y' if count == 1 else 'ies'} active",
                float(count),
                0.0,
            )
        return ("ok", "no peers quarantined", 0.0, 0.0)


class StorageUnboundedMonitor(Monitor):
    """Critical when the hot block footprint exceeds the lifecycle bound.

    Only registered when the run has a lifecycle spec — without one the
    chain is intentionally unbounded and the timeline carries no
    ``hot_blocks``/``hot_bound`` fields to level on.  Firing means the
    pruning pipeline stalled: checkpoints stopped landing, or
    ``maybe_prune`` stopped being reached.
    """

    name = "storage-unbounded"

    def level(self, sample: Dict[str, Any]) -> tuple:
        hot = sample.get("hot_blocks")
        bound = sample.get("hot_bound")
        if hot is None or bound is None:
            return ("ok", "no lifecycle data", None, None)
        if hot > bound:
            return (
                "critical",
                f"{hot} hot block bodies exceed the lifecycle bound of {bound}",
                float(hot),
                float(bound),
            )
        return ("ok", f"{hot} hot block bodies within bound {bound}", float(hot), float(bound))


class MonitorSuite:
    """All monitors for a run, plus the accumulated event stream."""

    def __init__(self, monitors: List[Monitor]):
        self.monitors = monitors
        self.events: List[MonitorEvent] = []

    @classmethod
    def for_config(cls, config: Any) -> "MonitorSuite":
        """Default monitor set, thresholds derived from a SystemConfig."""
        t0 = config.expected_block_interval
        monitors: List[Monitor] = [
            ChainStallMonitor(t0),
            IntervalDriftMonitor(t0),
            FairnessMonitor(),
            StakeConcentrationMonitor(),
            CoverageMonitor(),
            AdmissionRejectionMonitor(),
            QuarantineMonitor(),
        ]
        if getattr(config, "lifecycle", None) is not None:
            monitors.append(StorageUnboundedMonitor())
        return cls(monitors)

    def observe(self, sample: Dict[str, Any]) -> List[MonitorEvent]:
        """Feed one timeline sample to every monitor; returns new events."""
        fresh: List[MonitorEvent] = []
        for monitor in self.monitors:
            fresh.extend(monitor.check(sample))
        self.events.extend(fresh)
        return fresh

    def verdict(self) -> Dict[str, Any]:
        """Machine-readable end-of-run health verdict.

        ``status`` is the worst severity of any *alert* (warning /
        critical) emitted during the run — recoveries don't erase the
        fact that the invariant was violated.  ``current`` reflects only
        monitors still in a degraded level at the end.
        """
        worst = -1
        by_monitor: Dict[str, Dict[str, Any]] = {}
        for monitor in self.monitors:
            by_monitor[monitor.name] = {
                "events": 0,
                "worst": None,
                "current_level": monitor._level,
            }
        for event in self.events:
            entry = by_monitor.setdefault(
                event.monitor, {"events": 0, "worst": None, "current_level": "ok"}
            )
            entry["events"] += 1
            if event.severity == "info":
                continue
            rank = severity_rank(event.severity)
            worst = max(worst, rank)
            if entry["worst"] is None or rank > severity_rank(entry["worst"]):
                entry["worst"] = event.severity
        degraded_now = sorted(
            name
            for name, entry in by_monitor.items()
            if entry["current_level"] != "ok"
        )
        from repro.version import package_version

        return {
            "schema": VERDICT_SCHEMA,
            "version": package_version(),
            "status": "healthy" if worst < 0 else SEVERITIES[worst],
            "alerts": sum(1 for e in self.events if e.severity != "info"),
            "events_total": len(self.events),
            "degraded_now": degraded_now,
            "by_monitor": by_monitor,
        }

    # -- persistence ------------------------------------------------------------------

    def write_events(self, path: PathLike) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            header = {"schema": EVENTS_SCHEMA, "events": len(self.events)}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        return target

    def write_verdict(self, path: PathLike) -> Path:
        return write_json(self.verdict(), path)


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Read an events JSONL file back (header line skipped)."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if line_number == 0 and record.get("schema") == EVENTS_SCHEMA:
                continue
            events.append(record)
    return events


def read_verdict(path: PathLike) -> Dict[str, Any]:
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
