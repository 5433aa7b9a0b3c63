"""One cadence for durable runs: a durable run is the plain run plus files.

A durable run journals and snapshots from the ``after_segment`` callback
of :func:`repro.sim.runner.advance`, never from an event of its own, so
it processes the same engine events as the plain run of its spec, and
its snapshots pickle nothing of the persistence layer.  Its segments end
on the multiples of ``journal_every_seconds`` from clock 0, so a run
paused off that grid journals on it again after the resume.
"""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.core.config import PAPER_CONFIG
from repro.obs.timeline import TIMELINE_NAME
from repro.persist import PersistConfig, resume_run, run_persistent, snapshot_paths
from repro.persist.journal import REC_BLOCK, recover_journal
from repro.persist.resume import JOURNAL_NAME
from repro.persist.snapshot import load_snapshot
from repro.sim.runner import ExperimentSpec, advance, build_runtime

pytestmark = pytest.mark.persist

JOURNAL_EVERY = 20.0
PERSIST = PersistConfig(
    journal_every_seconds=JOURNAL_EVERY, snapshot_every_seconds=120.0
)


def spec() -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG, simulation_minutes=15.0, data_items_per_minute=2.0,
        expected_block_interval=20.0,
    )
    return ExperimentSpec(node_count=6, config=config, seed=5)


@pytest.fixture(autouse=True)
def obs_disabled_afterwards():
    yield
    obs.disable()


def _plain_runtime():
    runtime = build_runtime(spec())
    advance(runtime)
    return runtime


def _block_records(directory: Path):
    return [
        record
        for record in recover_journal(directory / JOURNAL_NAME).records
        if record.type == REC_BLOCK
    ]


class TestDurableIsPlainPlusFiles:
    def test_same_engine_events_as_the_plain_run(self, tmp_path):
        plain = _plain_runtime()
        durable = run_persistent(spec(), tmp_path / "run", persist=PERSIST)
        assert durable.completed
        assert (
            durable.result.cluster.engine.events_processed
            == plain.engine.events_processed
        )
        assert (
            durable.result.cluster.longest_chain_node().chain.chain_digest()
            == plain.cluster.longest_chain_node().chain.chain_digest()
        )

    def test_same_timeline_samples_as_the_plain_run(self, tmp_path):
        session = obs.enable(timeline_interval=10.0)
        _plain_runtime()
        session.export(tmp_path / "plain")
        obs.disable()
        session = obs.enable(timeline_interval=10.0)
        run_persistent(spec(), tmp_path / "run", persist=PERSIST)
        session.export(tmp_path / "durable")
        obs.disable()
        plain = (tmp_path / "plain" / TIMELINE_NAME).read_bytes()
        assert plain.count(b"\n") > 10
        assert (tmp_path / "durable" / TIMELINE_NAME).read_bytes() == plain


class TestNothingOfPersistIsPickled:
    def test_snapshot_holds_no_persistence_object(self, tmp_path):
        run_persistent(
            spec(), tmp_path / "run", persist=PERSIST, stop_after_seconds=250.0
        )
        paths = snapshot_paths(tmp_path / "run")
        assert paths
        runtime, _ = load_snapshot(paths[-1])
        assert not hasattr(runtime, "persist_task")
        owners = [
            getattr(callback, "__module__", None)
            or type(getattr(callback, "__self__", callback)).__module__
            for _, _, event in runtime.engine._queue
            for callback in (event.callback, *(c for c, _ in event.batch or ()))
        ]
        assert owners
        assert not [owner for owner in owners if owner.startswith("repro.persist")]


class TestResumeOffTheGrid:
    def test_resume_after_an_off_grid_pause_journals_on_the_grid(self, tmp_path):
        plain = _plain_runtime()
        reference = run_persistent(spec(), tmp_path / "ref", persist=PERSIST)
        assert reference.completed

        run = tmp_path / "run"
        paused = run_persistent(
            spec(), run, persist=PERSIST, stop_after_seconds=410.0
        )
        assert not paused.completed and paused.clock == 410.0
        resumed = resume_run(run)
        assert resumed.completed and resumed.resumed_from == 410.0
        assert (
            resumed.result.cluster.engine.events_processed
            == plain.engine.events_processed
        )

        records = _block_records(run)
        assert {(r.payload["index"], r.payload["hash"]) for r in records} == {
            (r.payload["index"], r.payload["hash"]) for r in _block_records(tmp_path / "ref")
        }
        after = [r.clock for r in records if r.clock > 410.0]
        assert after
        assert all(clock % JOURNAL_EVERY == 0 for clock in after)


_ADVANCE = textwrap.dedent(
    """
    import sys
    from dataclasses import replace
    from repro.core.config import PAPER_CONFIG
    from repro.sim.runner import ExperimentSpec, advance, build_runtime

    segment = None if sys.argv[1] == "None" else float(sys.argv[1])
    config = replace(PAPER_CONFIG, simulation_minutes=2.0)
    runtime = build_runtime(ExperimentSpec(node_count=3, config=config, seed=1))
    try:
        advance(runtime, None, segment, lambda: None)
    except ValueError as error:
        print(error)
        sys.exit(7)
    sys.exit(0)
    """
)


@pytest.mark.parametrize("segment", ["None", "0", "-1"])
def test_advance_refuses_a_callback_without_a_positive_segment(segment):
    # In a child with a timeout: a zero segment that is not refused never
    # moves the clock, and must not hang the suite.
    src = Path(sys.modules["repro"].__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _ADVANCE, segment],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 7, child.stderr
    assert "segment_seconds must be positive" in child.stdout
