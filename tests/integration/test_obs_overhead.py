"""The observability determinism contract, end to end.

Two guarantees, both load-bearing:

1. **Zero perturbation** — hooks only *read* simulation state (the clock,
   queue depths); they never touch RNGs or protocol state.  A seeded run
   must therefore produce bit-identical chain and ledger digests with
   observability on, off, or toggled mid-suite.
2. **Full coverage** — one enabled session watching a simulation run and
   a durable (journal + SQLite) run sees spans and counters from every
   instrumented subsystem: the run phases, engine, facility, pos, and
   persist.
"""

import urllib.request

import pytest

from repro.obs import runtime as obs
from repro.obs.export import read_trace_events
from repro.obs.live.profiler import PROFILE_NAME
from repro.obs.live.stream import read_stream
from repro.obs.runtime import METRICS_NAME, TRACE_NAME
from repro.persist.resume import PersistConfig, run_persistent
from repro.sim.runner import ExperimentSpec, run_experiment
from tests.helpers import make_config

pytestmark = pytest.mark.obs

#: The shared small scenario: big enough to mine, place, and serve data.
SPEC = ExperimentSpec(
    node_count=6,
    config=make_config(expected_block_interval=20.0, data_items_per_minute=1.0),
    seed=13,
    duration_minutes=6.0,
)


@pytest.fixture(autouse=True)
def obs_disabled_afterwards():
    yield
    obs.disable()


def run_digests(spec=SPEC):
    result = run_experiment(spec)
    chain = result.cluster.longest_chain_node().chain
    return chain.chain_digest(), chain.state.ledger_digest()


class TestOverheadGuard:
    def test_digests_identical_with_obs_on_and_off(self):
        baseline = run_digests()
        obs.enable()
        traced = run_digests()
        session = obs.active_session()
        obs.disable()
        again = run_digests()

        assert traced == baseline
        assert again == baseline
        # And the traced run actually traced: this guard must never pass
        # vacuously because instrumentation silently stopped firing.
        assert len(session.tracer.finished) > 100
        assert session.metrics.counter("engine.events").value > 0

    def test_digests_identical_with_timeline_and_monitors_on(self):
        """The PR-3 semantic layer is as non-perturbing as the raw hooks."""
        baseline = run_digests()
        session = obs.enable(timeline_interval=10.0)
        traced = run_digests()
        obs.disable()

        assert traced == baseline
        # The timeline really sampled and the monitors really watched.
        assert len(session.timeline.samples) > 10
        assert session.monitors is not None
        verdict = session.monitors.verdict()
        assert verdict["status"] in ("healthy", "warning", "critical")

    def test_digests_identical_with_full_telemetry_plane_on(self, tmp_path):
        """PR-8 live plane: streaming ring + Prometheus endpoint + sampling
        profiler all armed, digests still bit-identical to the dark run."""
        baseline = run_digests()
        session = obs.enable(timeline_interval=10.0)
        session.start_stream(tmp_path)
        port = session.start_telemetry()
        session.start_profiler(hz=199.0)
        traced = run_digests()
        # Scrape mid-flight state before export tears the server down.
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            exposition = response.read().decode("utf-8")
        profiler = session.profiler  # export() nulls the handle
        session.export(tmp_path / "out")
        obs.disable()
        dark_again = run_digests()

        assert traced == baseline
        assert dark_again == baseline
        # Each leg of the plane demonstrably ran — no vacuous pass.
        assert "repro_engine_events" in exposition
        stream_samples = [
            r for r in read_stream(tmp_path) if r["kind"] == "sample"
        ]
        assert len(stream_samples) > 10
        assert profiler.samples > 0
        assert (tmp_path / "out" / PROFILE_NAME).exists()

    def test_repeated_enable_disable_cycles_stay_deterministic(self):
        baseline = run_digests()
        for _ in range(2):
            obs.enable()
            assert run_digests() == baseline
            obs.disable()
            assert run_digests() == baseline


class TestFiveSubsystemCoverage:
    def test_one_session_sees_all_instrumented_subsystems(self, tmp_path):
        session = obs.enable()

        # Simulation run: engine, facility, pos (and the run phases).
        run_experiment(SPEC)

        # Durable run: WAL journal fsyncs + SQLite block commits.
        run_persistent(
            ExperimentSpec(
                node_count=5,
                config=make_config(expected_block_interval=20.0),
                seed=3,
                duration_minutes=3.0,
            ),
            tmp_path / "durable",
            persist=PersistConfig(journal_every_seconds=20.0),
        )

        target = session.export(tmp_path / "obs")
        obs.disable()

        # Spans: pos is counters/histograms-only (hit computation has no
        # meaningful extent), every other subsystem contributes spans too.
        events = read_trace_events(target / TRACE_NAME)
        categories = {e["cat"] for e in events if e.get("ph") == "X"}
        assert {"engine", "facility", "persist", "run"} <= categories

        # Counters/histograms: the four instrumented protocol subsystems.
        names = session.metrics.names()
        for prefix in ("engine.", "facility.", "pos.", "persist."):
            assert any(n.startswith(prefix) for n in names), f"no {prefix} metrics"
        assert (target / METRICS_NAME).exists()
