"""Unit tests for atomic, versioned runtime snapshots."""

import json
from dataclasses import replace

import pytest

from repro.core.config import PAPER_CONFIG
from repro.core.errors import PersistError
from repro.persist.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    inspect_snapshot,
    load_latest_snapshot,
    load_snapshot,
    restore_latest,
    snapshot_paths,
    write_snapshot,
)
from repro.sim.runner import ExperimentSpec, SimRuntime, build_runtime, collect_metrics

pytestmark = pytest.mark.persist


def small_spec(seed: int = 5) -> ExperimentSpec:
    config = replace(
        PAPER_CONFIG, simulation_minutes=10.0, data_items_per_minute=2.0
    )
    return ExperimentSpec(node_count=5, config=config, seed=seed)


@pytest.fixture
def midrun_runtime():
    runtime = build_runtime(small_spec())
    runtime.engine.run_until(240.0)
    return runtime


class TestWriteAndLoad:
    def test_round_trip_restores_exact_state(self, tmp_path, midrun_runtime):
        path = write_snapshot(tmp_path, midrun_runtime)
        restored, info = load_snapshot(path)
        assert restored.engine.now == midrun_runtime.engine.now
        original_chain = midrun_runtime.cluster.longest_chain_node().chain
        restored_chain = restored.cluster.longest_chain_node().chain
        assert restored_chain.chain_digest() == original_chain.chain_digest()
        assert info.height == original_chain.height

    def test_restored_runtime_continues_identically(
        self, tmp_path, midrun_runtime
    ):
        path = write_snapshot(tmp_path, midrun_runtime)
        restored, _ = load_snapshot(path)
        for runtime in (midrun_runtime, restored):
            runtime.engine.run_until(runtime.spec.duration_seconds)
        original = collect_metrics(midrun_runtime)
        resumed = collect_metrics(restored)
        assert (
            restored.cluster.longest_chain_node().chain.tip.current_hash
            == midrun_runtime.cluster.longest_chain_node().chain.tip.current_hash
        )
        assert resumed.chain_height() == original.chain_height()
        assert resumed.delivery_times == original.delivery_times

    def test_state_card_inspectable_without_unpickling(
        self, tmp_path, midrun_runtime
    ):
        path = write_snapshot(tmp_path, midrun_runtime)
        info = inspect_snapshot(path)
        assert info.clock == 240.0
        assert info.schema_version == SNAPSHOT_SCHEMA_VERSION
        assert info.blob_bytes > 0
        document = json.loads(path.read_text())
        assert set(document["storages"]) == {"0", "1", "2", "3", "4"}

    def test_retain_prunes_oldest(self, tmp_path):
        runtime = build_runtime(small_spec())
        for clock in (120.0, 240.0, 360.0):
            runtime.engine.run_until(clock)
            write_snapshot(tmp_path, runtime, retain=2)
        paths = snapshot_paths(tmp_path)
        assert len(paths) == 2
        assert inspect_snapshot(paths[-1]).clock == 360.0

    def test_retain_validated(self, tmp_path, midrun_runtime):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path, midrun_runtime, retain=0)

    def test_no_temp_files_left_behind(self, tmp_path, midrun_runtime):
        write_snapshot(tmp_path, midrun_runtime)
        assert not list(tmp_path.glob("*.tmp"))


class TestRejection:
    def test_wrong_schema_version_rejected(self, tmp_path, midrun_runtime):
        path = write_snapshot(tmp_path, midrun_runtime)
        document = json.loads(path.read_text())
        document["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="schema"):
            load_snapshot(path)

    @staticmethod
    def _assert_old_version_refused(tmp_path, runtime, version):
        assert SNAPSHOT_SCHEMA_VERSION == 5
        path = write_snapshot(tmp_path, runtime)
        document = json.loads(path.read_text())
        document["schema_version"] = version
        document["blob"] = "not a v5 runtime"
        path.write_text(json.dumps(document))
        with pytest.raises(
            PersistError, match=rf"schema v{version}, this build reads v5"
        ):
            load_snapshot(path)
        runtime, info, skipped = load_latest_snapshot(tmp_path)
        assert runtime is None and info is None
        assert len(skipped) == 1 and f"schema v{version}" in skipped[0]

    def test_v1_snapshot_refused_by_version_not_by_unpickling(
        self, tmp_path, midrun_runtime
    ):
        # v1 pickled a Topology that held a networkx graph; v2's holds its
        # own adjacency.  The header check answers before the blob is read.
        self._assert_old_version_refused(tmp_path, midrun_runtime, 1)

    def test_v2_snapshot_refused_by_version_not_by_unpickling(
        self, tmp_path, midrun_runtime
    ):
        # v2 pickled the topology's path cache and the solver's matrix
        # token; v3 carries neither, nor any hop or RDC matrix.
        self._assert_old_version_refused(tmp_path, midrun_runtime, 2)

    def test_v3_snapshot_refused_by_version_not_by_unpickling(
        self, tmp_path, midrun_runtime
    ):
        # v3 pickled a chain without the ledgers after each retained block,
        # and per-node ledgers holding a list and a deque; v4's hold tuples.
        self._assert_old_version_refused(tmp_path, midrun_runtime, 3)

    def test_v4_snapshot_refused_by_version_not_by_unpickling(
        self, tmp_path, midrun_runtime
    ):
        # v4 pickled a durable run's persistence task on the runtime and
        # its next tick on the event queue, and heaped ordered events;
        # v5's heap holds (time, sequence, event) tuples and no task.
        self._assert_old_version_refused(tmp_path, midrun_runtime, 4)

    def test_blob_crc_mismatch_rejected(self, tmp_path, midrun_runtime):
        path = write_snapshot(tmp_path, midrun_runtime)
        document = json.loads(path.read_text())
        blob = document["blob"]
        document["blob"] = blob[:100] + ("A" if blob[100] != "A" else "B") + blob[101:]
        path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="CRC"):
            load_snapshot(path)

    def test_truncated_file_rejected(self, tmp_path, midrun_runtime):
        path = write_snapshot(tmp_path, midrun_runtime)
        path.write_text(path.read_text()[:200])
        with pytest.raises(PersistError):
            load_snapshot(path)


class TestLatestFallback:
    def test_falls_back_past_corrupt_newest(self, tmp_path):
        runtime = build_runtime(small_spec())
        runtime.engine.run_until(120.0)
        write_snapshot(tmp_path, runtime, retain=3)
        runtime.engine.run_until(240.0)
        write_snapshot(tmp_path, runtime, retain=3)
        newest = snapshot_paths(tmp_path)[-1]
        newest.write_text(newest.read_text()[:300])
        restored, info, skipped = load_latest_snapshot(tmp_path)
        assert restored is not None
        assert info.clock == 120.0
        assert len(skipped) == 1

    def test_empty_directory_returns_none(self, tmp_path):
        restored, info, skipped = load_latest_snapshot(tmp_path)
        assert restored is None and info is None and skipped == []


class TestRestoreLatest:
    def test_refuses_a_snapshot_of_another_runtime_kind(
        self, tmp_path, midrun_runtime
    ):
        from repro.federation import resume_federation

        write_snapshot(tmp_path, midrun_runtime)
        with pytest.raises(PersistError, match="not a FederationRuntime"):
            resume_federation(tmp_path)
        restored, info, _ = restore_latest(tmp_path, SimRuntime)
        assert restored.snapshot_digest() == midrun_runtime.snapshot_digest()
        assert info.clock == 240.0
