"""Durability of the batched cold-archive append, with the unflushed bytes
actually discarded.

``ChainStore.compact`` hands the whole range to
``BlockArchive.append_encoded``, which fsyncs once, and deletes hot rows
only afterwards.  Killing a process would not test that ordering — the
OS cache survives a kill — so these tests do the discarding themselves:

* *power loss*: ``os.fsync`` is wrapped to remember each file's length at
  its last sync; when the store opens its delete transaction the
  archive's **synced** length must already cover every index about to
  go, and an archive cut back to that length must still verify;
* *torn batch*: the archive is cut at byte offsets all through the last
  batch (the store never reached its deletes), reopened and healed by
  the next compaction;
* *failing source*: a hot row missing mid-batch aborts the compaction
  with a valid, synced, accounted prefix and an untouched store.
"""

import os
import shutil

import pytest

from repro.core.errors import PersistError
from repro.lifecycle import ARCHIVE_NAME, BlockArchive
from repro.persist.chainstore import ChainStore
from repro.persist.resume import STORE_NAME
from tests.helpers import archive_record_ends, stored_chain

pytestmark = pytest.mark.lifecycle


def _file_id(stat) -> tuple:
    return stat.st_dev, stat.st_ino


@pytest.fixture
def synced_lengths(monkeypatch):
    """``(device, inode) → file length`` as of each file's last ``os.fsync``."""
    lengths = {}
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        stat = os.fstat(fd)
        lengths[_file_id(stat)] = stat.st_size

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return lengths


class _DeleteSpy:
    """Stands in for the store's connection; calls back as compaction's
    delete transaction issues its first statement."""

    def __init__(self, connection, before_delete):
        self._connection = connection
        self._before_delete = before_delete

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        return self._connection.__exit__(*exc_info)

    def execute(self, sql, *parameters):
        if sql.startswith("DELETE FROM blocks WHERE idx <"):
            self._before_delete(*parameters)
        return self._connection.execute(sql, *parameters)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _whole_records(data: bytes) -> int:
    return len(archive_record_ends(data))


class TestPowerLoss:
    def test_archive_is_synced_before_the_delete_transaction(
        self, tmp_path, synced_lengths
    ):
        chain, store = stored_chain(tmp_path / STORE_NAME, 320)
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        seen = []

        def before_delete(parameters):
            (up_to,) = parameters
            synced = synced_lengths.get(_file_id(path.stat()), 0)
            durable = path.read_bytes()[:synced]
            assert archive_record_ends(durable)[-1] == synced
            assert _whole_records(durable) >= up_to, (
                f"about to delete hot rows below {up_to} with only "
                f"{_whole_records(durable)} archived blocks on stable storage"
            )
            seen.append((up_to, synced))

        store._conn = _DeleteSpy(store._conn, before_delete)
        # Two batches, so a stale sync from the first cannot vouch for
        # the second.
        first, second = 40, chain.first_retained_index
        assert second - first >= 256
        assert store.compact(archive, first, chain.checkpoints) == first
        assert store.compact(archive, second, chain.checkpoints) == second - first
        assert [up_to for up_to, _ in seen] == [first, second]

        # Power loss right after the deletes committed: everything past
        # the last sync is gone.
        store.close()
        os.truncate(path, seen[-1][1])
        reopened = BlockArchive(path)
        with ChainStore(tmp_path / STORE_NAME) as hot:
            assert reopened.archived_below >= hot.pruned_below() == second
            assert hot.verify_integrity() == []
        assert reopened.torn_tail_bytes == 0
        assert reopened.verify_integrity() == []


class TestTornBatch:
    #: Blocks already archived, and the floor the torn batch was headed for.
    BASE, TARGET = 24, 40

    def test_any_tear_inside_the_last_batch_heals(self, tmp_path):
        base_dir = tmp_path / "base"
        base_dir.mkdir()
        chain, store = stored_chain(base_dir / STORE_NAME, 64)
        assert chain.first_retained_index >= self.TARGET
        store.compact(
            BlockArchive(base_dir / ARCHIVE_NAME), self.BASE, chain.checkpoints
        )
        store.close()
        base_bytes = (base_dir / ARCHIVE_NAME).read_bytes()

        # The same store taken to TARGET uninterrupted: the bytes a
        # healed archive must end up with.
        full_dir = tmp_path / "full"
        shutil.copytree(base_dir, full_dir)
        with ChainStore(full_dir / STORE_NAME) as store:
            store.compact(
                BlockArchive(full_dir / ARCHIVE_NAME), self.TARGET, chain.checkpoints
            )
        full_bytes = (full_dir / ARCHIVE_NAME).read_bytes()
        assert full_bytes.startswith(base_bytes)

        # Every record boundary of the batch, one byte either side, and
        # the middle of every record.
        boundaries = [len(base_bytes)] + [
            end for end in archive_record_ends(full_bytes) if end > len(base_bytes)
        ]
        assert boundaries[-1] == len(full_bytes)
        assert len(boundaries) == self.TARGET - self.BASE + 1
        cuts = set()
        for start, end in zip(boundaries, boundaries[1:]):
            cuts.update((start, start + 1, (start + end) // 2, end - 1, end))

        for number, cut in enumerate(sorted(cuts)):
            case_dir = tmp_path / f"case{number}"
            shutil.copytree(base_dir, case_dir)
            # The crash: the batch got this far, the deletes never ran.
            (case_dir / ARCHIVE_NAME).write_bytes(full_bytes[:cut])
            survived = sum(1 for boundary in boundaries[1:] if boundary <= cut)
            last_whole = boundaries[survived]

            archive = BlockArchive(case_dir / ARCHIVE_NAME)
            assert archive.archived_below == self.BASE + survived, cut
            assert archive.torn_tail_bytes == cut - last_whole
            assert (case_dir / ARCHIVE_NAME).stat().st_size == last_whole
            with ChainStore(case_dir / STORE_NAME) as store:
                # No hot row is gone that the archive lacks.
                assert store.pruned_below() == self.BASE <= archive.archived_below
                for index in range(self.BASE, store.height() + 1):
                    assert store.block_by_index(index) is not None
                moved = store.compact(archive, self.TARGET, chain.checkpoints)
                assert moved == self.TARGET - self.BASE
                assert store.pruned_below() == archive.archived_below == self.TARGET
                assert store.verify_integrity() == []
            assert archive.verify_integrity() == []
            assert (case_dir / ARCHIVE_NAME).read_bytes() == full_bytes
            shutil.rmtree(case_dir)


class TestFailingSource:
    def test_missing_row_mid_batch_leaves_a_synced_prefix(
        self, tmp_path, synced_lengths
    ):
        chain, store = stored_chain(tmp_path / STORE_NAME, 64)
        path = tmp_path / ARCHIVE_NAME
        archive = BlockArchive(path)
        base, missing, target = 16, 29, 40
        store.compact(archive, base, chain.checkpoints)
        hot_before = store.block_count()
        with store._conn:
            store._conn.execute("DELETE FROM blocks WHERE idx = ?", (missing,))
        store._cache.clear()

        with pytest.raises(PersistError, match=f"block {missing} is missing"):
            store.compact(archive, target, chain.checkpoints)

        # The store did not move ...
        assert store.pruned_below() == base
        assert store.block_count() == hot_before - 1
        # ... and the archive holds exactly the blocks taken before the
        # failure: whole records, accounted for in memory, on stable storage.
        assert archive.archived_below == missing
        assert archive.size_bytes == path.stat().st_size
        assert synced_lengths[_file_id(path.stat())] == path.stat().st_size
        reopened = BlockArchive(path)
        assert reopened.archived_below == missing
        assert reopened.torn_tail_bytes == 0
        assert reopened.verify_integrity() == []
        assert reopened.checkpoints() == archive.checkpoints()
