"""Integration tests: durable runs, crash recovery, CLI resume determinism."""

import json
import math
import os
import signal
import subprocess
import sys
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import PAPER_CONFIG
from repro.core.errors import PersistError
from repro.lifecycle.archive import ARCHIVE_NAME, BlockArchive
from repro.metrics.export import metrics_to_record
from repro.persist import (
    PersistConfig,
    inspect_run,
    resume_run,
    run_persistent,
)
from repro.persist.chainstore import ChainStore
from repro.persist.journal import (
    REC_BLOCK,
    REC_REORG,
    WRITE_BATCH,
    RunJournal,
    recover_journal,
)
from repro.persist.resume import (
    CHAIN_SUMMARY_NAME,
    JOURNAL_NAME,
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    METRICS_NAME,
    STORE_NAME,
    PersistSession,
    read_manifest,
    spec_to_dict,
)
from repro.sim.runner import ChurnSpec, ExperimentSpec, run_experiment
from tests.helpers import durable_files_only, stored_chain

pytestmark = pytest.mark.persist

#: A snappy interval so short test runs journal often.
FAST_PERSIST = PersistConfig(journal_every_seconds=20.0)


def small_spec(seed: int = 7, churn: bool = False) -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG, simulation_minutes=15.0, data_items_per_minute=2.0
    )
    return ExperimentSpec(
        node_count=6,
        config=config,
        seed=seed,
        churn=ChurnSpec() if churn else None,
    )


def record_text(metrics, seed: int) -> str:
    # json.dumps renders NaN stably, making records comparable even when
    # a metric (e.g. mean recovery with zero recoveries) is NaN.
    return json.dumps(metrics_to_record(metrics, seed=seed), sort_keys=True)


class TestDurableEqualsPlain:
    def test_persisted_run_matches_plain_run(self, tmp_path):
        spec = small_spec()
        plain = run_experiment(spec)
        durable = run_persistent(spec, tmp_path / "run", persist=FAST_PERSIST)
        assert durable.completed
        assert record_text(durable.metrics, 7) == record_text(plain.metrics, 7)

    def test_run_directory_layout(self, tmp_path):
        durable = run_persistent(
            small_spec(), tmp_path / "run", persist=FAST_PERSIST
        )
        names = {p.name for p in durable.directory.iterdir()}
        for required in (
            MANIFEST_NAME,
            JOURNAL_NAME,
            STORE_NAME,
            METRICS_NAME,
            CHAIN_SUMMARY_NAME,
        ):
            assert required in names
        manifest = json.loads((durable.directory / MANIFEST_NAME).read_text())
        assert manifest["status"] == "complete"

    def test_existing_run_directory_refused(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        with pytest.raises(PersistError, match="already holds a run"):
            run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)


class TestKillAndResume:
    def reference_record(self, spec) -> str:
        return record_text(run_experiment(spec).metrics, spec.seed)

    def test_pause_then_resume_is_deterministic(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        paused = run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        assert not paused.completed
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == pytest.approx(400.0)
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_hard_kill_torn_journal_resumes(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        with (tmp_path / "run" / JOURNAL_NAME).open("ab") as handle:
            handle.write(b'{"v": 1, "seq": 9999, "type": "blo')  # torn write
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_resume_without_snapshots_replays_from_genesis(self, tmp_path):
        spec = small_spec()
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        journaled = _journaled_blocks(tmp_path / "run" / JOURNAL_NAME)
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert resumed.resumed_from == 400.0
        # Every journaled block was re-mined with the journal's hash.
        assert resumed.blocks_verified >= len(journaled) > 0
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_stop_after_counts_from_the_resume_point(self, tmp_path):
        run_persistent(
            small_spec(), tmp_path / "run", persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        run = durable_files_only(tmp_path / "run", tmp_path / "copy")
        resumed = resume_run(run, stop_after_seconds=100.0)
        assert not resumed.completed
        assert resumed.resumed_from == 400.0 and resumed.clock == 500.0
        manifest = json.loads((run / MANIFEST_NAME).read_text())
        assert manifest["paused_at_clock"] == 500.0

    def test_resume_with_churn_spec_round_trips(self, tmp_path):
        spec = small_spec(seed=3, churn=True)
        reference = self.reference_record(spec)
        run_persistent(
            spec, tmp_path / "run", persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        resumed = resume_run(tmp_path / "run")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == reference

    def test_completed_run_refuses_resume(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        with pytest.raises(PersistError, match="already completed"):
            resume_run(tmp_path / "run")

    def test_corrupt_journal_refuses_resume(self, tmp_path):
        run_persistent(
            small_spec(),
            tmp_path / "run",
            persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        journal = tmp_path / "run" / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[3] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        with pytest.raises(PersistError, match="corrupt"):
            resume_run(tmp_path / "run")


class TestManifest:
    """A run directory's manifest is read at a trust boundary: whatever is
    wrong with it ends in a :class:`PersistError` (``repro resume`` exit
    2), never a traceback."""

    @pytest.fixture
    def paused(self, tmp_path):
        directory = tmp_path / "run"
        run_persistent(
            small_spec(), directory, persist=FAST_PERSIST, stop_after_seconds=60.0
        )
        return directory

    def rewrite(self, directory, **changes):
        path = directory / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        for key, value in changes.items():
            if isinstance(value, dict) and isinstance(manifest.get(key), dict):
                manifest[key] = {**manifest[key], **value}
            else:
                manifest[key] = value
        path.write_text(json.dumps(manifest))

    def test_unknown_persist_key_fails_typed(self, paused, capsys):
        self.rewrite(paused, persist={"snapshot_every_seconds": 600.0})
        with pytest.raises(PersistError, match="malformed manifest"):
            resume_run(paused)
        assert main(["resume", str(paused)]) == 2
        assert "snapshot_every_seconds" in capsys.readouterr().err

    def test_negative_journal_interval_fails_typed(self, paused):
        self.rewrite(paused, persist={"journal_every_seconds": -20.0})
        with pytest.raises(PersistError, match="journal interval must be positive"):
            resume_run(paused)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", [
        "spec/duration_minutes",
        "spec/config/data_items_per_minute",
        "spec/config/expected_block_interval",
        "persist/journal_every_seconds",
    ])
    def test_non_finite_value_fails_typed_before_any_run(
        self, paused, monkeypatch, capsys, path, value
    ):
        """A NaN duration would otherwise schedule productions forever."""
        manifest_path = paused / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        *parents, last = path.split("/")
        target = manifest
        for key in parents:
            target = target[key]
        target[last] = value
        manifest_path.write_text(json.dumps(manifest))

        def no_runtime(spec):
            raise AssertionError("a runtime was built from a non-finite spec")

        monkeypatch.setattr("repro.persist.resume.build_runtime", no_runtime)
        with pytest.raises(PersistError, match="malformed"):
            resume_run(paused)
        assert main(["resume", str(paused)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_version_1_is_refused_by_its_header(self, paused):
        self.rewrite(paused, schema_version=1)
        with pytest.raises(PersistError, match="schema v1"):
            resume_run(paused)
        assert not inspect_run(paused).ok

    def test_a_manifest_of_another_kind_fails_typed(self, tmp_path, capsys):
        directory = tmp_path / "federated"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text(json.dumps({
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "kind": "federation",
            "status": "running",
        }))
        with pytest.raises(PersistError, match="'federation'; this build does not read it"):
            read_manifest(directory)
        assert main(["inspect", str(directory)]) == 1
        assert "'federation'" in capsys.readouterr().err
        assert main(["resume", str(directory)]) == 2
        assert "this build does not read it" in capsys.readouterr().err


#: Runs one durable run and SIGKILLs itself right after its ``kill_at``-th
#: store put, so the rows staged since the last commit die with it.
_KILL_MID_BATCH = """
import json, os, signal, sys
from repro.persist import PersistConfig, run_persistent
from repro.persist.chainstore import ChainStore
from repro.persist.resume import spec_from_dict

directory, kill_at, spec, persist = sys.argv[1:]
put_block, puts = ChainStore.put_block, 0

def put_then_die(store, block):
    global puts
    put_block(store, block)
    puts += 1
    if puts == int(kill_at):
        if not store._staged:
            sys.exit(3)  # nothing staged: the kill would test nothing
        os.kill(os.getpid(), signal.SIGKILL)

ChainStore.put_block = put_then_die
run_persistent(
    spec_from_dict(json.loads(spec)), directory, PersistConfig(**json.loads(persist))
)
sys.exit(4)  # the run ended before the kill
"""


def _journaled_blocks(path) -> dict:
    """Height → hash of the chain the journal ends on."""
    view = {}
    for record in recover_journal(path).records:
        if record.type == REC_BLOCK:
            view[record.payload["index"]] = record.payload["hash"]
        elif record.type == REC_REORG:
            view = {h: v for h, v in view.items() if h < record.payload["from"]}
    return view


def _store_misses(directory, journaled) -> list:
    with ChainStore(directory / STORE_NAME) as store:
        return [
            height
            for height, block_hash in sorted(journaled.items())
            if getattr(store.block_by_index(height), "current_hash", None)
            != block_hash
        ]


class TestCrashInBatch:
    """A SIGKILL with store rows staged but not committed: the journal
    holds them, so resume re-puts them and lands on the uninterrupted run."""

    #: Store puts before the kill; not a multiple of the write batch.
    KILL_AT = 45

    def test_kill_with_staged_rows_resumes_to_the_uninterrupted_run(self, tmp_path):
        assert self.KILL_AT % WRITE_BATCH
        base = small_spec()
        spec = replace(base, config=replace(base.config, expected_block_interval=10.0))
        reference = run_persistent(spec, tmp_path / "ref", persist=FAST_PERSIST)
        assert reference.completed

        run = tmp_path / "run"
        src = Path(sys.modules["repro"].__file__).resolve().parents[1]
        child = subprocess.run(
            [
                sys.executable, "-c", _KILL_MID_BATCH, str(run), str(self.KILL_AT),
                json.dumps(spec_to_dict(spec)), json.dumps(asdict(FAST_PERSIST)),
            ],
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, [str(src), os.environ.get("PYTHONPATH")])
                ),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        # The journal was written first; the store lost what was staged.
        assert _store_misses(run, _journaled_blocks(run / JOURNAL_NAME))

        resumed = resume_run(run)
        assert resumed.completed
        for name in (METRICS_NAME, CHAIN_SUMMARY_NAME):
            assert (run / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        journaled = _journaled_blocks(run / JOURNAL_NAME)
        assert journaled == _journaled_blocks(tmp_path / "ref" / JOURNAL_NAME)
        assert _store_misses(run, journaled) == []
        with ChainStore(run / STORE_NAME) as store, ChainStore(
            tmp_path / "ref" / STORE_NAME
        ) as ref_store:
            assert store.verify_integrity() == []
            assert store.get_meta("final_chain_digest") == ref_store.get_meta(
                "final_chain_digest"
            )

    def test_journal_sync_commits_the_store(self, tmp_path):
        _, source = stored_chain(tmp_path / "source.sqlite", 5)
        with source:
            blocks = list(source.iter_blocks())
        run = tmp_path / "run"
        session = PersistSession(
            run,
            FAST_PERSIST,
            RunJournal.open(run / JOURNAL_NAME),
            ChainStore(run / STORE_NAME),
            BlockArchive(run / ARCHIVE_NAME),
        )
        try:
            for block in blocks:
                session.record_block(block, block.timestamp)
            assert _store_misses(run, _journaled_blocks(run / JOURNAL_NAME))
            session.sync()
            assert _store_misses(run, _journaled_blocks(run / JOURNAL_NAME)) == []
        finally:
            session.close()


class TestInspect:
    def test_healthy_run_reports_ok(self, tmp_path):
        run_persistent(small_spec(), tmp_path / "run", persist=FAST_PERSIST)
        report = inspect_run(tmp_path / "run")
        assert report.ok
        assert report.status == "complete"
        assert report.journal_height == report.store_height
        assert report.journal_clock == 15 * 60.0

    def test_not_a_run_directory(self, tmp_path):
        report = inspect_run(tmp_path)
        assert not report.ok

    def test_mid_file_corruption_reported(self, tmp_path):
        run_persistent(
            small_spec(),
            tmp_path / "run",
            persist=FAST_PERSIST,
            stop_after_seconds=400.0,
        )
        journal = tmp_path / "run" / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        report = inspect_run(tmp_path / "run")
        assert not report.ok
        assert any("corrupt" in problem for problem in report.problems)

    def test_store_row_from_before_a_journaled_reorg_is_a_note(self, tmp_path):
        run = tmp_path / "run"
        run_persistent(
            small_spec(), run, persist=FAST_PERSIST, stop_after_seconds=400.0
        )
        store = ChainStore(run / STORE_NAME)
        tip = store.block_by_index(store.height())
        fork = replace(tip, timestamp=tip.timestamp + 1.0, current_hash="")
        session = PersistSession(
            run,
            FAST_PERSIST,
            RunJournal.open(run / JOURNAL_NAME),
            store,
            BlockArchive(run / ARCHIVE_NAME),
        )
        session.record_reorg(tip.index, fork.timestamp)
        session.record_block(fork, fork.timestamp)
        store._conn.close()  # the kill: the fork's staged put dies uncommitted
        session.journal.close()

        report = inspect_run(run)
        assert report.ok, report.problems
        assert any("before a journaled reorg" in note for note in report.notes)

        # Reorged back in: the store's row is the journal's block again.
        with closing(RunJournal.open(run / JOURNAL_NAME)) as journal, ChainStore(
            run / STORE_NAME
        ) as store:
            session = PersistSession(
                run, FAST_PERSIST, journal, store, BlockArchive(run / ARCHIVE_NAME)
            )
            session.record_reorg(tip.index, fork.timestamp)
            session.record_block(tip, fork.timestamp)
        report = inspect_run(run)
        assert report.ok, report.problems
        assert not any("reorg" in note for note in report.notes)

        # A row the journal never held at that height is still a problem.
        with ChainStore(run / STORE_NAME) as store:
            store.put_block(
                replace(tip, timestamp=tip.timestamp + 2.0, current_hash="")
            )
        report = inspect_run(run)
        assert any("disagrees with the journal" in p for p in report.problems)


class TestCLI:
    def run_args(self, directory, extra=()):
        return [
            "run",
            "--nodes", "6",
            "--minutes", "15",
            "--rate", "2",
            "--seed", "7",
            "--persist", str(directory),
            "--journal-every", "20",
            *extra,
        ]

    def test_cli_kill_and_resume_matches_uninterrupted(self, tmp_path, capsys):
        full_dir = tmp_path / "full"
        assert main(self.run_args(full_dir)) == 0
        resumed_dir = tmp_path / "resumed"
        assert main(self.run_args(resumed_dir, ["--stop-after", "400"])) == 0
        assert "paused" in capsys.readouterr().out
        assert main(["resume", str(resumed_dir)]) == 0
        assert "resumed from" in capsys.readouterr().out
        full_metrics = (full_dir / METRICS_NAME).read_text()
        resumed_metrics = (resumed_dir / METRICS_NAME).read_text()
        assert full_metrics == resumed_metrics
        full_summary = json.loads((full_dir / CHAIN_SUMMARY_NAME).read_text())
        resumed_summary = json.loads(
            (resumed_dir / CHAIN_SUMMARY_NAME).read_text()
        )
        assert full_summary["tip_hash"] == resumed_summary["tip_hash"]

    def test_cli_inspect_exit_codes(self, tmp_path, capsys):
        directory = tmp_path / "run"
        assert main(self.run_args(directory, ["--stop-after", "400"])) == 0
        assert main(["inspect", str(directory)]) == 0
        journal = directory / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"mangled": true}\n'
        journal.write_bytes(b"".join(lines))
        assert main(["inspect", str(directory)]) == 1
        assert "PROBLEM" in capsys.readouterr().err
        assert main(["resume", str(directory)]) == 2

    def test_cli_stop_after_requires_persist(self):
        with pytest.raises(SystemExit):
            main(["run", "--stop-after", "60"])
