"""Opening a run directory keeps an index, not the records.

The journal and the cold archive are opened by one streaming scan that
keeps a byte offset and a line CRC per record.  These tests pin what
that buys and what it must not lose:

* opening costs memory per record, not per file byte (a ``tracemalloc``
  guard over two run directories eight times apart in size);
* a journal record is read back from the file only when asked for, and a
  line rewritten after the scan raises instead of being returned;
* ``inspect_run`` decodes no journal record after the scan, and
  ``resume_run`` only those it writes back into the store;
* a truncated or garbled ``chain.sqlite`` is a reported problem, not a
  crash.
"""

import shutil
import sqlite3
import tracemalloc
from contextlib import closing
from dataclasses import replace

import pytest

from repro.core.block import Block
from repro.core.config import PAPER_CONFIG
from repro.core.errors import PersistError
from repro.core.serialization import block_to_dict
from repro.lifecycle import ARCHIVE_NAME, BlockArchive, CheckpointRecord
from repro.persist import PersistConfig, inspect_run, resume_run, run_persistent
from repro.persist import journal as journal_module
from repro.persist.journal import REC_BLOCK, JournalRecord, RunJournal, recover_journal
from repro.persist.resume import JOURNAL_NAME, MANIFEST_NAME, STORE_NAME
from repro.sim.runner import ExperimentSpec

# -- bounded memory ----------------------------------------------------------------------

#: Allowed growth of the opening peak per extra record: the index is 12 B
#: (journal offset + CRC) and 8 B (archive offset) per record, plus the
#: position of every eighth record's pinned checkpoint.
BYTES_PER_RECORD = 64


def write_run(directory, records: int) -> None:
    """A journal and an archive of ``records`` linked blocks, with a
    checkpoint pinned every eighth block (the lifecycle default)."""
    directory.mkdir()
    previous = "0" * 64
    pairs = []
    with closing(RunJournal.open(directory / JOURNAL_NAME, fsync_every=records)) as journal:
        for index in range(records):
            block = Block(
                index=index,
                timestamp=10.0 * index,
                previous_hash=previous,
                pos_hash=f"{index * 7919:064x}",
                miner=index % 3,
                miner_address=f"addr{index % 3:036d}",
                hit=index * 104729,
                target_b=1.5,
                storing_nodes=(index % 3,),
                previous_storing_nodes=((index + 2) % 3,),
            )
            previous = block.current_hash
            journal.append(
                REC_BLOCK,
                block.timestamp,
                {"index": index, "hash": block.current_hash, "block": block_to_dict(block)},
            )
            checkpoint = None
            if index % 8 == 0:
                checkpoint = CheckpointRecord(
                    index=index,
                    block_hash=block.current_hash,
                    ledger_digest=f"{index:064x}",
                    stake_summary=tuple((node, repr(1.0 + node / 3)) for node in range(3)),
                    timestamp=block.timestamp,
                )
            pairs.append((block, checkpoint))
    BlockArchive(directory / ARCHIVE_NAME).append_many(pairs)


def opening_peak(directory) -> int:
    """Peak traced bytes of recovering the journal plus opening the archive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recovery = recover_journal(directory / JOURNAL_NAME)
        archive = BlockArchive(directory / ARCHIVE_NAME)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(recovery.records) == archive.archived_below
    assert not recovery.corrupt and not recovery.torn_tail_bytes
    return peak


@pytest.mark.lifecycle
class TestOpeningMemory:
    def test_peak_grows_per_record_not_per_byte(self, tmp_path):
        small, large = tmp_path / "small", tmp_path / "large"
        write_run(small, 1024)
        write_run(large, 8192)
        opening_peak(small)  # warm one-time allocations
        small_peak, large_peak = opening_peak(small), opening_peak(large)
        extra_records = 8192 - 1024
        extra_bytes = sum(
            (large / name).stat().st_size - (small / name).stat().st_size
            for name in (JOURNAL_NAME, ARCHIVE_NAME)
        )
        # What the guard must tell apart: holding the files would add
        # about a kilobyte per record.
        assert extra_bytes > 16 * BYTES_PER_RECORD * extra_records
        assert large_peak - small_peak <= BYTES_PER_RECORD * extra_records, (
            small_peak,
            large_peak,
        )


# -- records read back on access ---------------------------------------------------------


def journal_of(path, notes):
    with closing(RunJournal.open(path)) as journal:
        for index, note in enumerate(notes):
            journal.append(REC_BLOCK, float(index), {"index": index, "note": note})
    return [
        JournalRecord(seq=i, type=REC_BLOCK, clock=float(i), payload={"index": i, "note": n})
        for i, n in enumerate(notes)
    ]


def rewrite_line(path, position, line):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[position] = line
    path.write_bytes(b"".join(lines))


@pytest.mark.persist
class TestRecordsReadBack:
    def test_index_reads_like_the_list_it_stands_for(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        written = journal_of(path, ["a", "bb", "ccc"])
        records = recover_journal(path).records
        assert len(records) == 3 and records == written and written == list(records)
        assert records[-1] == written[-1] and records[1] == written[1]
        assert records != written[:2]
        with pytest.raises(IndexError):
            records[3]

    @pytest.mark.parametrize("note", ["b" * 10, "b" * 30], ids=["same-length", "longer"])
    def test_line_rewritten_after_the_scan_raises(self, tmp_path, note):
        path = tmp_path / JOURNAL_NAME
        written = journal_of(path, ["a" * 10] * 4)
        records = recover_journal(path).records
        # A well-formed record with the right seq and CRC, but not the
        # line the scan checked.
        forged = JournalRecord(
            seq=2, type=REC_BLOCK, clock=2.0, payload={"index": 2, "note": note}
        ).encode()
        rewrite_line(path, 2, forged)
        with pytest.raises(PersistError, match="changed since it was scanned"):
            records[2]
        seen = []
        with pytest.raises(PersistError, match="changed since it was scanned"):
            for record in records:
                seen.append(record)
        assert seen == written[:2]
        assert all(record.payload["note"] != note for record in seen)

    def test_truncated_or_removed_file_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        written = journal_of(path, ["a", "b", "c"])
        records = recover_journal(path).records
        path.write_bytes(path.read_bytes()[:-3])
        assert records[1] == written[1]
        with pytest.raises(PersistError):
            records[2]
        path.unlink()
        with pytest.raises(PersistError, match="unreadable"):
            records[0]


# -- run directories -----------------------------------------------------------------------


SMALL_RUN = ExperimentSpec(
    node_count=6,
    config=replace(PAPER_CONFIG, simulation_minutes=10.0, data_items_per_minute=2.0),
    seed=7,
)
FAST_PERSIST = PersistConfig(journal_every_seconds=20.0)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A completed durable run: manifest, journal and chain store."""
    base = tmp_path_factory.mktemp("streaming")
    run_persistent(SMALL_RUN, base / "run", persist=FAST_PERSIST)
    directory = base / "store-only"
    directory.mkdir()
    for name in (MANIFEST_NAME, JOURNAL_NAME, STORE_NAME):
        shutil.copy(base / "run" / name, directory / name)
    return directory


def count_reads(monkeypatch):
    """Count journal records read back after the scan."""
    reads = []
    read = journal_module._JournalRecords._read

    def counted(self, handle, position):
        reads.append(position)
        return read(self, handle, position)

    monkeypatch.setattr(journal_module._JournalRecords, "_read", counted)
    return reads


@pytest.mark.persist
class TestRunDirectories:
    def test_inspect_decodes_no_journal_record(self, run_dir, monkeypatch):
        reads = count_reads(monkeypatch)
        report = inspect_run(run_dir)
        assert report.ok and report.journal_records > 0 and report.journal_height > 0
        assert reads == []

    def test_resume_decodes_only_the_blocks_it_puts_back(self, tmp_path, monkeypatch):
        directory = tmp_path / "run"
        paused = run_persistent(
            SMALL_RUN, directory, persist=FAST_PERSIST, stop_after_seconds=300.0
        )
        assert not paused.completed
        with sqlite3.connect(directory / STORE_NAME) as store:
            store.execute("DELETE FROM blocks WHERE idx = (SELECT MAX(idx) FROM blocks)")
        reads = count_reads(monkeypatch)
        assert resume_run(directory).completed
        assert len(reads) == 1

    def _damaged(self, run_dir, tmp_path, data):
        directory = tmp_path / "damaged"
        if not directory.exists():
            shutil.copytree(run_dir, directory)
        for name in (STORE_NAME + "-wal", STORE_NAME + "-shm"):
            (directory / name).unlink(missing_ok=True)
        (directory / STORE_NAME).write_bytes(data)
        return inspect_run(directory)

    def test_truncated_store_is_a_problem(self, run_dir, tmp_path):
        whole = (run_dir / STORE_NAME).read_bytes()
        for cut in (50, 100, len(whole) // 2):
            assert not self._damaged(run_dir, tmp_path, whole[:cut]).ok, cut

    def test_garbled_header_is_a_problem(self, run_dir, tmp_path):
        whole = (run_dir / STORE_NAME).read_bytes()
        report = self._damaged(run_dir, tmp_path, b"\xff" * 64 + whole[64:])
        assert any("chain store unreadable" in problem for problem in report.problems)

    def test_garbled_bytes_anywhere_never_crash_inspect(self, run_dir, tmp_path):
        """Overwrite eight bytes at every 397th offset with bytes sqlite's
        own error text cannot decode, then with JSON-breaking text: each
        damage is reported or harmless, and some is reported."""
        whole = (run_dir / STORE_NAME).read_bytes()
        reported = 0
        for patch in (b"\xff" * 8, b'#7a{]"0,'):
            for at in range(0, len(whole) - 8, 397):
                data = whole[:at] + patch + whole[at + 8 :]
                reported += not self._damaged(run_dir, tmp_path, data).ok
        assert reported
