"""Crash-injection tests for the write-ahead run journal."""

import json
from contextlib import closing

import pytest

from repro.core.errors import PersistError
from repro.lifecycle.framing import _frame
from repro.persist.journal import (
    JOURNAL_FORMAT_VERSION,
    REC_BLOCK,
    REC_RUN_START,
    JournalRecord,
    RunJournal,
    recover_journal,
)

pytestmark = pytest.mark.persist


@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "journal.jsonl"


def write_records(path, count: int) -> None:
    with closing(RunJournal.open(path)) as journal:
        for index in range(count):
            journal.append(REC_BLOCK, float(index), {"index": index})


class TestAppendAndRecover:
    def test_round_trip(self, journal_path):
        with closing(RunJournal.open(journal_path)) as journal:
            journal.append(REC_RUN_START, 0.0, {"seed": 7})
            journal.append(REC_BLOCK, 60.0, {"index": 1, "hash": "abc"})
        recovery = recover_journal(journal_path)
        assert not recovery.corrupt
        assert recovery.torn_tail_bytes == 0
        assert [r.type for r in recovery.records] == [REC_RUN_START, REC_BLOCK]
        assert recovery.records[1].payload == {"index": 1, "hash": "abc"}
        assert recovery.records[1].clock == 60.0

    def test_sequence_numbers_are_contiguous(self, journal_path):
        write_records(journal_path, 5)
        recovery = recover_journal(journal_path)
        assert [r.seq for r in recovery.records] == [0, 1, 2, 3, 4]
        assert recovery.next_seq == 5

    def test_reopen_continues_sequence(self, journal_path):
        write_records(journal_path, 3)
        with closing(RunJournal.open(journal_path)) as journal:
            assert journal.next_seq == 3
            assert journal.append(REC_BLOCK, 9.0, {}) == 3

    def test_append_after_close_rejected(self, journal_path):
        journal = RunJournal.open(journal_path)
        journal.close()
        with pytest.raises(PersistError):
            journal.append(REC_BLOCK, 0.0, {})

    def test_fsync_every_validated(self, journal_path):
        with pytest.raises(ValueError):
            RunJournal(journal_path, fsync_every=0)


class TestEmptyJournals:
    def test_missing_file_is_empty_journal(self, journal_path):
        recovery = recover_journal(journal_path)
        assert recovery.records == []
        assert not recovery.corrupt
        assert recovery.next_seq == 0

    def test_zero_length_file_is_empty_journal(self, journal_path):
        journal_path.write_bytes(b"")
        recovery = recover_journal(journal_path)
        assert recovery.records == []
        assert not recovery.corrupt
        assert recovery.torn_tail_bytes == 0
        # ... and a writer opens it cleanly.
        with closing(RunJournal.open(journal_path)) as journal:
            assert journal.next_seq == 0


class TestTornTail:
    def test_unterminated_final_record_dropped(self, journal_path):
        write_records(journal_path, 4)
        with journal_path.open("ab") as handle:
            handle.write(b'{"v": 1, "seq": 4, "type": "blo')  # died mid-write
        recovery = recover_journal(journal_path)
        assert not recovery.corrupt
        assert recovery.torn_tail_bytes > 0
        assert len(recovery.records) == 4

    def test_terminated_but_crc_broken_final_record_is_torn_tail(
        self, journal_path
    ):
        write_records(journal_path, 4)
        record = JournalRecord(seq=4, type=REC_BLOCK, clock=1.0, payload={})
        encoded = bytearray(record.encode())
        encoded[10] ^= 0xFF  # flip a byte, keep the newline
        with journal_path.open("ab") as handle:
            handle.write(bytes(encoded))
        recovery = recover_journal(journal_path)
        assert not recovery.corrupt
        assert recovery.torn_tail_bytes == len(encoded)
        assert len(recovery.records) == 4

    def test_open_truncates_torn_tail_and_resumes(self, journal_path):
        write_records(journal_path, 4)
        clean_size = journal_path.stat().st_size
        with journal_path.open("ab") as handle:
            handle.write(b"garbage tail with no newline")
        with closing(RunJournal.open(journal_path)) as journal:
            assert journal.next_seq == 4
            journal.append(REC_BLOCK, 5.0, {"index": 4})
        assert journal_path.stat().st_size > clean_size
        recovery = recover_journal(journal_path)
        assert not recovery.corrupt
        assert [r.seq for r in recovery.records] == [0, 1, 2, 3, 4]


class TestMidFileCorruption:
    def corrupt_record(self, journal_path, index: int) -> None:
        lines = journal_path.read_bytes().splitlines(keepends=True)
        lines[index] = b'{"not": "a valid record"}\n'
        journal_path.write_bytes(b"".join(lines))

    def test_crc_mismatch_mid_file_marks_corrupt(self, journal_path):
        write_records(journal_path, 6)
        lines = journal_path.read_bytes().splitlines(keepends=True)
        body = json.loads(lines[2])
        body["clock"] = 999.0  # payload no longer matches the stored crc
        lines[2] = json.dumps(body, sort_keys=True).encode() + b"\n"
        journal_path.write_bytes(b"".join(lines))
        recovery = recover_journal(journal_path)
        assert recovery.corrupt
        assert "CRC" in recovery.reason
        assert len(recovery.records) == 2
        assert recovery.dropped_records == 4

    def test_structural_damage_mid_file_marks_corrupt(self, journal_path):
        write_records(journal_path, 6)
        self.corrupt_record(journal_path, 1)
        recovery = recover_journal(journal_path)
        assert recovery.corrupt
        assert len(recovery.records) == 1
        assert recovery.dropped_records == 5

    def test_open_refuses_corrupt_journal(self, journal_path):
        write_records(journal_path, 6)
        self.corrupt_record(journal_path, 1)
        with pytest.raises(PersistError, match="corrupt"):
            RunJournal.open(journal_path)

    def test_sequence_break_marks_corrupt(self, journal_path):
        write_records(journal_path, 3)
        skipped = JournalRecord(seq=7, type=REC_BLOCK, clock=1.0, payload={})
        with journal_path.open("ab") as handle:
            handle.write(skipped.encode())
        write_tail = JournalRecord(seq=8, type=REC_BLOCK, clock=2.0, payload={})
        with journal_path.open("ab") as handle:
            handle.write(write_tail.encode())
        recovery = recover_journal(journal_path)
        assert recovery.corrupt
        assert "sequence" in recovery.reason
        assert len(recovery.records) == 3

    def test_a_journal_of_the_old_format_is_refused_never_truncated(self, journal_path):
        """One whole record of format v1 is not a torn write: recovery
        names the version, and opening for append refuses the file."""
        write_records(journal_path, 1)
        old = journal_path.read_bytes().replace(
            b'"v":%d' % JOURNAL_FORMAT_VERSION, b'"v":1'
        )
        body = json.loads(old)
        del body["crc"]
        journal_path.write_bytes(_frame(body))
        recovery = recover_journal(journal_path)
        assert recovery.corrupt and not recovery.records
        assert recovery.reason == (
            f"journal record 0 has format v1; this build reads v{JOURNAL_FORMAT_VERSION}"
        )
        with pytest.raises(PersistError, match="format v1"):
            RunJournal.open(journal_path)
        assert journal_path.read_bytes() == _frame(body)

    def test_wrong_format_version_rejected(self, journal_path):
        body = {
            "v": JOURNAL_FORMAT_VERSION + 1,
            "seq": 0,
            "type": REC_BLOCK,
            "clock": 0.0,
            "payload": {},
        }
        import zlib

        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = format(zlib.crc32(canonical.encode()) & 0xFFFFFFFF, "08x")
        line = json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
        journal_path.write_text(line + line)
        recovery = recover_journal(journal_path)
        assert recovery.corrupt
        assert "format" in recovery.reason
