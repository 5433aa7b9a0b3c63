"""Federation integration tests: determinism, lookups, migration, chaos.

The acceptance bar for the federated subsystem:

* a seeded multi-cluster run is **deterministic** — two same-seed runs
  produce identical per-cluster chain digests and directory state;
* cross-cluster lookups resolve through the fog super-peers, and
  migrated items land on the target cluster's chain with their identity
  (data_id) intact;
* a killed durable run resumes by replay, checked against its digest
  journal, to exactly the digests of an uninterrupted run;
* a fully-Byzantine cluster stays contained: sibling clusters' safety
  verdicts come back clean (the blast-radius invariant).
"""

import json

import pytest

from repro.chaos import ChaosSpec, run_chaos
from repro.core.errors import PersistError
from repro.federation import (
    FederatedChaosSpec,
    FederationSpec,
    resume_federation,
    run_federated_chaos,
    run_federation,
)
from repro.persist.journal import REC_SEGMENT, JournalRecord, recover_journal
from repro.cli import main
from repro.persist.resume import JOURNAL_NAME, MANIFEST_NAME, inspect_run
from repro.sim.runner import ChurnSpec
from repro.version import package_version
from tests.helpers import make_config

pytestmark = pytest.mark.fed


def fed_spec(clusters=2, nodes=4, seed=7, minutes=6.0, **overrides):
    return FederationSpec(
        cluster_count=clusters,
        nodes_per_cluster=nodes,
        config=make_config(),
        seed=seed,
        duration_minutes=minutes,
        **overrides,
    )


def cluster_item_ids(domain):
    """Every data_id the cluster knows: on-chain plus still in mempools."""
    chain = domain.cluster.longest_chain_node().chain
    ids = {
        item.data_id
        for block in chain.blocks
        for item in block.metadata_items
    }
    for node in domain.cluster.nodes.values():
        ids.update(node.mempool)
    return ids


@pytest.fixture(scope="module")
def small_run():
    return run_federation(fed_spec())


class TestDeterminism:
    def test_acceptance_4x8_same_seed_same_state(self):
        spec = fed_spec(clusters=4, nodes=8, seed=11, minutes=8.0)
        first = run_federation(spec)
        second = run_federation(spec)
        assert first.aggregate["chain_digests"] == second.aggregate["chain_digests"]
        assert (
            first.aggregate["directory_digest"]
            == second.aggregate["directory_digest"]
        )
        assert first.aggregate["per_cluster"] == second.aggregate["per_cluster"]
        assert all(
            entry["formation_converged"]
            for entry in first.aggregate["per_cluster"]
        )
        # Every cluster made progress on its own shard.
        assert all(entry["height"] > 0 for entry in first.aggregate["per_cluster"])
        assert len(set(first.aggregate["chain_digests"])) == spec.cluster_count

    def test_churn_and_mobility_run_matches_pinned_digests(self):
        # Cluster 1 churns (events at ~97–344 s) and both clusters resample
        # positions at 120 s and 240 s; without either the digests differ.
        spec = fed_spec(
            mobility_epoch_minutes=2.0,
            churn_cluster=1,
            churn=ChurnSpec(
                node_fraction=0.5, events_per_node=2.0, mean_downtime_seconds=60.0
            ),
        )
        aggregate = run_federation(spec).aggregate
        assert aggregate["chain_digests"] == [
            "726ac42f23ef08ec103b94e1813bfd57e14734da0238d3d1ee9e75074ba76418",
            "389500502da8a203550a64cc37bd6079d7ffc65d4b211bf99aab4d3e9a136320",
        ]
        assert aggregate["directory_digest"] == "a16340ca010e21dfb0035d16528c7ff4"

    def test_different_seeds_diverge(self, small_run):
        other = run_federation(fed_spec(seed=8))
        assert (
            small_run.aggregate["chain_digests"]
            != other.aggregate["chain_digests"]
        )


class TestCrossClusterTraffic:
    def test_lookups_resolve_through_super_peers(self, small_run):
        aggregate = small_run.aggregate
        assert aggregate["lookups_ok"] > 0
        assert aggregate["lookups_failed"] == 0
        assert aggregate["gossip_rounds"] > 0
        # Gossip kept every replica within a few refresh periods.
        assert (
            aggregate["directory_staleness"]
            < 3 * small_run.spec.directory_refresh_seconds
        )

    def test_migrated_items_keep_their_identity(self, small_run):
        runtime = small_run.runtime
        migrations = runtime.fog.counters.migrations
        assert migrations > 0
        adopted = sum(
            node.counters.data_adopted
            for domain in runtime.domains
            for node in domain.cluster.nodes.values()
        )
        assert adopted == migrations
        # A migrated item exists under the same data_id in two clusters.
        id_sets = [cluster_item_ids(domain) for domain in runtime.domains]
        shared = set.intersection(*id_sets)
        assert shared


def assert_same_run(result, reference):
    for key in ("chain_digests", "directory_digest", "migrations"):
        assert result.aggregate[key] == reference.aggregate[key], key


class TestDurability:
    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path, small_run):
        spec = small_run.spec
        partial = run_federation(
            spec, persist_dir=tmp_path, stop_after_seconds=200.0
        )
        assert not partial.aggregate["finished"]
        # The paused runtime is discarded here — resume must rebuild it
        # from the manifest and journal alone, exactly as after a kill.
        resumed = resume_federation(tmp_path)
        assert resumed.aggregate["finished"]
        assert_same_run(resumed, small_run)

    def test_resume_stop_after_is_relative_to_the_paused_clock(
        self, tmp_path, small_run
    ):
        run_federation(
            small_run.spec, persist_dir=tmp_path, stop_after_seconds=120.0
        )
        resumed = resume_federation(tmp_path, stop_after_seconds=60.0)
        assert resumed.runtime.engine.now == 180.0
        assert not resumed.aggregate["finished"]

    def test_killed_mid_record_resumes_to_the_uninterrupted_run(
        self, tmp_path, small_run
    ):
        run_federation(small_run.spec, persist_dir=tmp_path, stop_after_seconds=250.0)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3  # segment ends at 120, 240 and the pause
        # The kill: the last record is cut mid-write.
        journal.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        resumed = resume_federation(tmp_path)
        assert resumed.aggregate["finished"]
        assert_same_run(resumed, small_run)
        records = recover_journal(journal).records
        assert not recover_journal(journal).torn_tail_bytes
        assert [record.clock for record in records] == [120.0, 240.0, 360.0]

    def test_a_flipped_digest_refuses_the_resume(self, tmp_path, small_run):
        run_federation(small_run.spec, persist_dir=tmp_path, stop_after_seconds=240.0)
        journal = tmp_path / JOURNAL_NAME
        records = list(recover_journal(journal).records)
        first = records[0]
        digests = list(first.payload["chain_digests"])
        digests[1] = digests[1][::-1]
        # Re-framed with a valid CRC: only the replay can catch it.
        forged = JournalRecord(
            seq=first.seq,
            type=REC_SEGMENT,
            clock=first.clock,
            payload={**first.payload, "chain_digests": digests},
        )
        journal.write_bytes(
            b"".join(record.encode() for record in [forged, *records[1:]])
        )
        with pytest.raises(PersistError, match="diverged from its journal at t=120s"):
            resume_federation(tmp_path)

    def test_inspect_reports_the_digest_journal(self, tmp_path, small_run, capsys):
        run_federation(small_run.spec, persist_dir=tmp_path, stop_after_seconds=120.0)
        report = inspect_run(tmp_path)
        assert report.ok and report.kind == "federation"
        assert (report.journal_records, report.journal_clock) == (1, 120.0)
        assert main(["inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "federation" in out and "120 s" in out and out.rstrip().endswith("ok")
        # A damaged record before the last one is a problem, not a note.
        journal = tmp_path / JOURNAL_NAME
        line = journal.read_bytes()
        journal.write_bytes(line.replace(b'"seq":0', b'"seq":9') + line)
        assert not inspect_run(tmp_path).ok
        assert main(["inspect", str(tmp_path)]) == 1

    def test_the_manifest_records_running_then_complete(self, tmp_path, capsys):
        """A 2x4 federation: paused at 120 s it is running, run to its end
        it is complete, and a complete run refuses `fed resume`."""
        fed = ["fed", "run", "--clusters", "2", "--nodes", "4", "--minutes", "4", "--seed", "1"]
        paused, finished = tmp_path / "paused", tmp_path / "finished"
        assert main(fed + ["--persist", str(paused), "--stop-after", "120"]) == 0
        assert inspect_run(paused).status == "running"
        assert main(fed + ["--persist", str(finished)]) == 0
        assert inspect_run(finished).status == "complete"
        assert main(["fed", "resume", str(paused)]) == 0
        assert inspect_run(paused).status == "complete"
        capsys.readouterr()
        assert main(["inspect", str(finished)]) == 0
        assert "complete" in capsys.readouterr().out
        assert main(["fed", "resume", str(finished)]) != 0
        assert "already completed; nothing to resume" in capsys.readouterr().err
        with pytest.raises(PersistError, match="already completed; nothing to resume"):
            resume_federation(finished)

    def test_planted_adversaries_cannot_be_persisted(self, tmp_path):
        spec = fed_spec(node_classes_by_cluster={0: {1: object}})
        with pytest.raises(PersistError, match="cannot be persisted"):
            run_federation(spec, persist_dir=tmp_path)
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestBlastRadius:
    @pytest.fixture(scope="class")
    def chaos_result(self):
        spec = FederatedChaosSpec(
            federation=fed_spec(clusters=3, nodes=4, seed=13, minutes=8.0),
            byzantine_clusters=(1,),
            behavior="equivocator",
            start_minutes=2.0,
        )
        return run_federated_chaos(spec)

    def test_byzantine_cluster_is_contained(self, chaos_result):
        verdict = chaos_result.verdict
        blast = verdict["blast_radius"]
        assert blast["ok"]
        assert blast["byzantine_clusters"] == [1]
        assert all(blast["sibling_safety"].values())
        assert verdict["status"] != "critical"
        assert verdict["clusters"]["1"]["status"] == "sacrificed"

    def test_verdict_artifact_is_version_stamped(self, chaos_result, tmp_path):
        target = chaos_result.write_verdict(tmp_path / "chaos_verdict.json")
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["version"] == package_version()
        # Sibling entries are full single-cluster verdicts, stamped too.
        for key in ("0", "2"):
            assert document["clusters"][key]["version"] == package_version()


class TestChaosVerdictVersionStamp:
    def test_single_cluster_chaos_verdict_carries_version(self, tmp_path):
        """Regression: chaos_verdict.json is stamped like verdict.json."""
        spec = ChaosSpec(
            node_count=4,
            config=make_config(),
            seed=3,
            duration_minutes=4.0,
            adversaries={},
        )
        result = run_chaos(spec)
        target = result.write_verdict(tmp_path / "chaos_verdict.json")
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["version"] == package_version()
