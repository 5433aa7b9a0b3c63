"""Integration tests for the chain lifecycle subsystem: bounded hot
storage on durable runs, compaction into the cold archive, pruned
kill-and-resume determinism, mid-compaction crash recovery, the CLI
verbs, and composition with planted adversaries."""

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.chaos import SyncPoisonerNode, compute_verdict
from repro.cli import main
from repro.core.config import PAPER_CONFIG, LifecycleSpec
from repro.core.admission import CHECKPOINT_REWRITE
from repro.core.messages import ChainResponse
from repro.lifecycle import ARCHIVE_NAME, BlockArchive, hot_bound_blocks
from repro.lifecycle.archive import LEGACY_ARCHIVE_NAME
from repro.lifecycle.framing import _frame
from repro.metrics.export import metrics_to_record
from repro.persist import (
    PersistConfig,
    inspect_run,
    resume_run,
    run_persistent,
)
from repro.persist.chainstore import ChainStore
from repro.persist.resume import CHAIN_SUMMARY_NAME, METRICS_NAME, STORE_NAME
from repro.sim.runner import ExperimentSpec, run_experiment
from tests.helpers import digest_run, durable_files_only, make_cluster, make_config

pytestmark = pytest.mark.lifecycle

FAST_PERSIST = PersistConfig(journal_every_seconds=20.0)

#: Lifecycle knobs that prune aggressively at test scale.
LC = dict(
    checkpoint_interval=2,
    checkpoint_lag=2,
    lifecycle=LifecycleSpec(retain_blocks=2),
)


def lifecycle_spec(seed: int = 7, minutes: float = 15.0) -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG,
        simulation_minutes=minutes,
        data_items_per_minute=2.0,
        **LC,
    )
    return ExperimentSpec(node_count=6, config=config, seed=seed)


def _verdict(spec: ExperimentSpec) -> dict:
    """The adversary verdict over one simulated run of ``spec``."""
    result = run_experiment(spec)
    return compute_verdict(
        result.cluster.nodes,
        spec.node_classes or (),
        spec.config.expected_block_interval,
        spec.duration_seconds,
    )


def record_text(metrics, seed: int) -> str:
    return json.dumps(metrics_to_record(metrics, seed=seed), sort_keys=True)


class TestDigestNeutrality:
    def test_lifecycle_on_equals_lifecycle_off(self):
        """Same seed, same digests: pruning never reads into consensus."""
        base = dict(
            node_count=8,
            seed=5,
            duration_minutes=5.0,
            expected_block_interval=10.0,
        )
        on_chain, on_ledger, _ = digest_run(
            checkpoint_interval=4, checkpoint_lag=4,
            lifecycle=LifecycleSpec(retain_blocks=8), **base,
        )
        off_chain, off_ledger, _ = digest_run(
            checkpoint_interval=4, checkpoint_lag=4, **base,
        )
        assert on_chain == off_chain
        assert on_ledger == off_ledger

    def test_cluster_prunes_within_hot_bound(self):
        config = make_config(expected_block_interval=10.0, **LC)
        cluster = make_cluster(6, seed=3, config=config, run_until=1200.0)
        bound = hot_bound_blocks(config)
        pruned = 0
        for node in cluster.nodes.values():
            chain = node.chain
            assert chain.retained_blocks <= bound
            if chain.first_retained_index > 0:
                pruned += 1
                assert chain.first_retained_index in chain.checkpoints
                assert node.storage.pruned_block_slots >= 0
        assert pruned > 0  # the scenario actually exercised pruning


class TestBoundedDurableRun:
    def test_run_compacts_into_archive(self, tmp_path):
        result = run_persistent(
            lifecycle_spec(), tmp_path / "run", persist=FAST_PERSIST
        )
        assert result.completed
        report = inspect_run(tmp_path / "run")
        assert report.ok, report.problems
        assert report.store_pruned_below > 0
        assert report.archive_blocks == report.store_pruned_below
        assert report.archive_checkpoints > 0
        assert report.archive_bytes > 0
        # Hot store holds only the retained suffix.
        assert report.store_blocks == (
            report.store_height - report.store_pruned_below + 1
        )
        archive = BlockArchive(tmp_path / "run" / ARCHIVE_NAME)
        assert archive.verify_integrity() == []
        # Ranged fetch round-trips against the hot store's lineage.
        store = ChainStore(tmp_path / "run" / STORE_NAME)
        first_hot = store.block_by_index(report.store_pruned_below)
        floor = report.store_pruned_below
        cold_tip = next(archive.fetch_range(floor - 1, floor))
        assert first_hot.previous_hash == cold_tip.current_hash

    def test_durable_equals_plain_with_lifecycle(self, tmp_path):
        spec = lifecycle_spec()
        plain = run_experiment(spec)
        durable = run_persistent(spec, tmp_path / "run", persist=FAST_PERSIST)
        assert durable.completed
        assert record_text(durable.metrics, 7) == record_text(plain.metrics, 7)


class TestPrunedKillAndResume:
    def test_pruned_resume_matches_uninterrupted(self, tmp_path):
        spec = lifecycle_spec()
        full = run_persistent(spec, tmp_path / "full", persist=FAST_PERSIST)
        paused = run_persistent(
            spec, tmp_path / "part", persist=FAST_PERSIST,
            stop_after_seconds=500.0,
        )
        assert not paused.completed
        # The pause point is beyond the first compaction, so resume must
        # rebuild from a store that no longer holds the genesis prefix.
        mid = inspect_run(tmp_path / "part")
        assert mid.store_pruned_below > 0
        resumed = resume_run(tmp_path / "part")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == record_text(
            full.metrics, spec.seed
        )
        # Byte-identical durable artifacts.
        assert (tmp_path / "part" / METRICS_NAME).read_bytes() == (
            tmp_path / "full" / METRICS_NAME
        ).read_bytes()
        full_summary = json.loads(
            (tmp_path / "full" / CHAIN_SUMMARY_NAME).read_text()
        )
        part_summary = json.loads(
            (tmp_path / "part" / CHAIN_SUMMARY_NAME).read_text()
        )
        assert full_summary["tip_hash"] == part_summary["tip_hash"]

    def test_replay_leaves_compacted_blocks_in_the_archive(self, tmp_path):
        run_persistent(
            lifecycle_spec(), tmp_path / "run", persist=FAST_PERSIST,
            stop_after_seconds=500.0,
        )
        floor = inspect_run(tmp_path / "run").store_pruned_below
        assert floor > 0
        run = durable_files_only(tmp_path / "run", tmp_path / "copy")
        resumed = resume_run(run, stop_after_seconds=20.0)
        assert not resumed.completed and resumed.blocks_verified > 0
        report = inspect_run(run)
        assert report.ok, report.problems
        with ChainStore(run / STORE_NAME) as store:
            assert all(
                store.block_by_index(index) is None
                for index in range(report.store_pruned_below)
            )
        assert main(["inspect", str(run)]) == 0

    def test_kill_mid_compaction_resumes(self, tmp_path):
        """Crash between archive append and store delete: the write-ahead
        archive is ahead of ``pruned_below``; resume and the next
        compaction must absorb the overlap idempotently."""
        spec = lifecycle_spec()
        full = run_persistent(spec, tmp_path / "full", persist=FAST_PERSIST)
        run_persistent(
            spec, tmp_path / "part", persist=FAST_PERSIST,
            stop_after_seconds=500.0,
        )
        store = ChainStore(tmp_path / "part" / STORE_NAME)
        archive = BlockArchive(tmp_path / "part" / ARCHIVE_NAME)
        floor = store.pruned_below()
        assert floor > 0 and archive.archived_below == floor
        # Replay the crash: two more blocks reached the archive but the
        # store deletes (and the pruned_below meta) never landed.
        for index in range(floor, min(floor + 2, store.height())):
            archive.append(store.block_by_index(index))
        assert archive.archived_below > store.pruned_below()
        store.close()
        resumed = resume_run(tmp_path / "part")
        assert resumed.completed
        assert record_text(resumed.metrics, spec.seed) == record_text(
            full.metrics, spec.seed
        )
        report = inspect_run(tmp_path / "part")
        assert report.ok, report.problems
        healed = BlockArchive(tmp_path / "part" / ARCHIVE_NAME)
        assert healed.verify_integrity() == []
        assert healed.archived_below >= report.store_pruned_below


class TestCheckpointRewriteOnPrunedChain:
    def test_anchored_rewrite_is_rejected_and_counted(self):
        config = make_config(expected_block_interval=10.0, **LC)
        cluster = make_cluster(6, seed=3, config=config, run_until=1200.0)
        victim = next(
            node for node in cluster.nodes.values()
            if node.chain.first_retained_index > 0
        )
        floor = victim.chain.first_retained_index
        # Forge a strictly-longer history anchored AT the pruned floor
        # with a different anchor body: one hash comparison against the
        # pinned lineage must refuse it as a checkpoint rewrite.
        real = list(victim.chain.blocks)
        fake_anchor = dataclasses.replace(
            real[0], timestamp=real[0].timestamp + 0.5, current_hash=""
        )
        fake_tip = dataclasses.replace(
            real[-1], index=victim.chain.height + 1, current_hash=""
        )
        forged = [fake_anchor] + real[1:] + [fake_tip]
        rejected_before = victim.admission.rejections.get(CHECKPOINT_REWRITE, 0)
        victim._on_chain_response(99, ChainResponse(blocks=tuple(forged)))
        assert (
            victim.admission.rejections.get(CHECKPOINT_REWRITE, 0)
            > rejected_before
        )
        assert victim.chain.first_retained_index == floor  # chain untouched

    def test_honest_chaos_run_with_lifecycle_stays_clean(self):
        config = make_config(expected_block_interval=10.0, **LC)
        verdict = _verdict(
            ExperimentSpec(
                node_count=6, config=config, seed=5, duration_minutes=12.0
            )
        )
        safety = verdict["safety"]
        assert safety["ok"], verdict
        assert safety["checkpoint_violations"] == []
        assert verdict["status"] == "ok"

    def test_poisoned_sync_on_pruned_chains_still_detected(self):
        config = make_config(
            expected_block_interval=10.0,
            verify_metadata_signatures=True,
            **LC,
        )
        spec = ExperimentSpec(
            node_count=6,
            config=config,
            seed=7,
            duration_minutes=12.0,
            node_classes={2: SyncPoisonerNode},
        )
        first, second = _verdict(spec), _verdict(spec)
        assert first == second
        assert first["safety"]["ok"], first


class TestLifecycleCLI:
    def run_args(self, directory, extra=()):
        return [
            "run",
            "--nodes", "6",
            "--minutes", "15",
            "--block-interval", "10",
            "--rate", "2",
            "--seed", "3",
            "--checkpoint-every", "2",
            "--retain", "2",
            "--persist", str(directory),
            "--journal-every", "20",
            *extra,
        ]

    def test_retain_requires_checkpoint_schedule(self):
        with pytest.raises(SystemExit):
            main(["run", "--nodes", "4", "--minutes", "5", "--retain", "8"])

    def test_lifecycle_run_inspect_and_archive_verbs(self, tmp_path, capsys):
        directory = tmp_path / "run"
        assert main(self.run_args(directory)) == 0
        assert main(["inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "store pruned below" in out
        assert "cold bytes (archive)" in out
        assert main(["archive", "inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "pinned checkpoints" in out
        assert main(["archive", "fetch", str(directory), "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["index"] == 0

    def test_prune_verb_compacts_offline(self, tmp_path, capsys):
        # A run WITHOUT lifecycle flags never prunes or compacts; the
        # offline verb retrofits the policy onto its store.
        directory = tmp_path / "run"
        args = self.run_args(directory)
        for flag in ("--checkpoint-every", "--retain"):
            where = args.index(flag)
            del args[where : where + 2]
        assert main(args) == 0
        capsys.readouterr()
        before = inspect_run(directory)
        assert before.store_pruned_below == 0
        # Without a policy (manifest has none, no flags): refused.
        with pytest.raises(SystemExit):
            main(["prune", str(directory)])
        policy = ["--checkpoint-every", "2", "--retain", "2"]
        assert main(["prune", str(directory), *policy]) == 0
        out = capsys.readouterr().out
        assert "pruned to checkpoint" in out
        after = inspect_run(directory)
        assert after.ok, after.problems
        assert after.store_pruned_below > 0
        assert after.archive_blocks == after.store_pruned_below
        archive = BlockArchive(directory / ARCHIVE_NAME)
        assert archive.verify_integrity() == []
        # Second invocation is a no-op.
        assert main(["prune", str(directory), *policy]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_archive_verbs_refuse_a_json_lines_archive(self, tmp_path, capsys):
        directory = tmp_path / "run"
        assert main(self.run_args(directory)) == 0
        (directory / ARCHIVE_NAME).unlink()
        (directory / LEGACY_ARCHIVE_NAME).write_bytes(
            _frame({"v": 2, "idx": 0, "hash": "00" * 32, "block": "AA=="})
        )
        capsys.readouterr()
        for verb in (["inspect"], ["fetch", "0"]):
            assert main(["archive", verb[0], str(directory), *verb[1:]]) == 2
            assert "has format v2; this build reads v3" in capsys.readouterr().err
        report = inspect_run(directory)
        assert not report.ok
        assert any("has format v2" in problem for problem in report.problems)

    def test_a_refused_archive_is_one_problem(self, tmp_path):
        # A compacted run whose directory holds only a JSON-lines archive:
        # the refusal is the problem; an empty archive is not a second one.
        directory = tmp_path / "run"
        assert main(self.run_args(directory)) == 0
        assert inspect_run(directory).store_pruned_below > 0
        (directory / ARCHIVE_NAME).unlink()
        (directory / LEGACY_ARCHIVE_NAME).write_bytes(
            _frame({"v": 2, "idx": 0, "hash": "00" * 32, "block": "AA=="})
        )
        (problem,) = inspect_run(directory).problems
        assert problem.startswith("cold archive unreadable: ")
        assert "has format v2" in problem
        # With no archive at all, the compacted store still names the gap.
        (directory / LEGACY_ARCHIVE_NAME).unlink()
        (problem,) = inspect_run(directory).problems
        assert "but the archive only holds [0, 0)" in problem

    def test_prune_pins_every_checkpoint_it_archives(self, tmp_path, capsys):
        """A run that archived [0, 6) with checkpoints every 2 blocks,
        pruned again every block: the records of 6 and 7 are archived
        with their blocks, each the ledger as of its own block."""
        directory = tmp_path / "run"
        args = self.run_args(directory)
        where = args.index("--block-interval")
        del args[where : where + 2]
        assert main(args) == 0
        assert main(["prune", str(directory), "--retain", "1", "--checkpoint-every", "1"]) == 0
        out = capsys.readouterr().out
        assert "f6344f99503d4b94" in out  # the horizon's record, as before
        archive = BlockArchive(directory / ARCHIVE_NAME)
        assert archive.archived_below == 8
        assert archive.stats().checkpoints == (2, 4, 6, 7)
        assert archive.verify_integrity() == []
        pinned = archive.checkpoints()
        blocks = list(archive.fetch_range(0, 8))
        for index, record in pinned.items():
            assert record.block_hash == blocks[index].current_hash
        assert len({record.ledger_digest for record in pinned.values()}) == 4
        assert main(["archive", "inspect", str(directory)]) == 0
        assert "2, 4, 6, 7" in capsys.readouterr().out
