"""Differential fuzz of the journal and archive openers against
whole-file loops.

Both files are opened by one streaming scan
(:func:`repro.lifecycle.framing._scan`) that keeps an index of the valid
prefix, reading JSON lines from the journal and length-prefixed binary
records from the archive.  The oracles read every byte and keep every
decoded record: the loop the journal ran before it streamed
(:func:`tests.helpers.reference_recover_journal`: split at newlines) and
one that walks an archive's records by their lengths
(``reference_load_archive``).  Files built from the framing tests'
strategies are cut at any byte, have bytes flipped and bytes inserted,
and the scan must reach the oracle's exact verdict — the records kept,
the byte counts, the mid-file verdict, the archive's truncation point
and its raise.  Every outcome is a value or a :class:`PersistError`,
never another exception; and a small archive is cut at every byte and
has every byte flipped, each a torn tail or a typed refusal — never a
block that is not the one written.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block
from repro.core.errors import PersistError, ValidationError
from repro.lifecycle import ARCHIVE_NAME, BlockArchive, CheckpointRecord
from repro.persist.journal import JournalRecord, recover_journal
from tests.helpers import (
    ARCHIVE_HEADER,
    archive_record_ends,
    reference_archive_bytes,
    reference_load_archive,
    reference_recover_journal,
)
from tests.property.test_framing import archive_batches, finite, payloads

pytestmark = pytest.mark.fastpath


@st.composite
def journal_bytes(draw):
    """1–4 framed journal records, seq 0, 1, …"""
    count = draw(st.integers(min_value=1, max_value=4))
    return b"".join(
        JournalRecord(
            seq=seq,
            type=draw(st.text(max_size=6)),
            clock=draw(finite),
            payload=draw(payloads),
        ).encode()
        for seq in range(count)
    )


@st.composite
def archive_bytes(draw):
    return reference_archive_bytes(draw(archive_batches()))


#: Inserted bytes lean towards the ones that move or forge record
#: boundaries: newlines in the journal; in the archive, a header and
#: record lengths whose CRC holds.
line_inserts = st.binary(min_size=1, max_size=8) | st.sampled_from(
    [b"\n", b"}\n", b'{"crc":"00000000"}\n', b"\n\n"]
)
record_inserts = st.binary(min_size=1, max_size=8) | st.sampled_from(
    [ARCHIVE_HEADER, b"{\"v\":2}\n"]
    + [
        length.to_bytes(4, "big") + zlib.crc32(length.to_bytes(4, "big")).to_bytes(4, "big")
        for length in (0, 36, 37, 400, 1 << 20, (1 << 26) + 1)
    ]
)


@st.composite
def damaged(draw, files, inserts):
    """A file from ``files``, then 0–3 cuts, byte flips and insertions."""
    data = draw(files)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["cut", "flip", "insert"]))
        if kind == "cut":
            data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
        elif kind == "flip" and data:
            at = draw(st.integers(min_value=0, max_value=len(data) - 1))
            mask = draw(st.integers(min_value=1, max_value=255))
            data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
        elif kind == "insert":
            at = draw(st.integers(min_value=0, max_value=len(data)))
            data = data[:at] + draw(inserts) + data[at:]
    return data


def outcome(open_file, path):
    """``open_file(path)``, or the :class:`PersistError` it raised — any
    other exception fails the test."""
    try:
        return open_file(path)
    except PersistError as error:
        return ("PersistError", str(error))


def scanned_journal(path):
    recovery = recover_journal(path)
    return {
        "records": list(recovery.records),
        "valid_bytes": recovery.valid_bytes,
        "dropped_records": recovery.dropped_records,
        "torn_tail_bytes": recovery.torn_tail_bytes,
        "corrupt": recovery.corrupt,
        "reason": recovery.reason,
    }


def scanned_archive(path):
    archive = BlockArchive(path)
    if path.exists():
        assert path.stat().st_size == archive.size_bytes  # the torn tail is gone
    return {
        "offsets": list(archive._offsets),
        "checkpoints": archive.checkpoints(),
        "length": archive.size_bytes,
        "torn_tail_bytes": archive.torn_tail_bytes,
    }


class TestScanAgainstWholeFileLoops:
    @settings(max_examples=300, deadline=None)
    @given(data=damaged(journal_bytes(), line_inserts))
    def test_journal_verdict_equals_the_oracle(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        path.write_bytes(data)
        expected = outcome(reference_recover_journal, path)
        assert outcome(scanned_journal, path) == expected
        assert path.read_bytes() == data  # recovery never writes
        recovery = recover_journal(path)
        assert recovery.records == expected["records"]
        assert recovery.next_seq == len(expected["records"])

    @settings(max_examples=300, deadline=None)
    @given(data=damaged(archive_bytes(), record_inserts))
    def test_archive_verdict_equals_the_oracle(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("archive") / ARCHIVE_NAME
        path.write_bytes(data)
        expected = outcome(reference_load_archive, path)
        assert outcome(scanned_archive, path) == expected
        if isinstance(expected, tuple):
            assert path.read_bytes() == data  # a refused archive is left alone

    def test_missing_files_are_empty_and_clean(self, tmp_path):
        journal, archive = tmp_path / "journal.jsonl", tmp_path / ARCHIVE_NAME
        assert scanned_journal(journal) == reference_recover_journal(journal)
        assert scanned_archive(archive) == reference_load_archive(archive)
        assert not journal.exists() and not archive.exists()


def small_archive():
    """Three linked item-free blocks, a checkpoint pinned with the middle one."""
    pairs, previous = [], "0" * 64
    for index in range(3):
        block = Block(
            index=index,
            timestamp=10.0 * index,
            previous_hash=previous,
            pos_hash=f"{index * 7919:064x}",
            miner=index,
            miner_address=f"addr{index}",
            hit=index * 104729,
            target_b=1.5,
            storing_nodes=(index,),
        )
        previous = block.current_hash
        checkpoint = None
        if index == 1:
            checkpoint = CheckpointRecord(
                index=index,
                block_hash=block.current_hash,
                ledger_digest="ab" * 32,
                stake_summary=((0, "1.5"), (1, "0.25")),
                timestamp=block.timestamp,
            )
        pairs.append((block, checkpoint))
    return pairs


class TestEveryCutAndFlip:
    def test_a_cut_at_any_byte_keeps_the_whole_records_before_it(self, tmp_path):
        pairs = small_archive()
        data = reference_archive_bytes(pairs)
        ends = archive_record_ends(data)
        path = tmp_path / ARCHIVE_NAME
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            archive = BlockArchive(path)
            whole = [end for end in ends if end <= cut]
            if cut < len(ARCHIVE_HEADER):
                kept = 0  # a header cut short is the torn write
            else:
                kept = whole[-1] if whole else len(ARCHIVE_HEADER)
            assert archive.archived_below == len(whole), cut
            assert archive.size_bytes == kept == path.stat().st_size
            assert archive.torn_tail_bytes == cut - kept
            assert archive.verify_integrity() == []
            assert list(archive.fetch_range(0, 3)) == [b for b, _ in pairs[: len(whole)]]

    def test_a_flipped_byte_anywhere_is_refused_or_dropped_with_the_tail(self, tmp_path):
        pairs = small_archive()
        blocks = [block for block, _ in pairs]
        data = reference_archive_bytes(pairs)
        last = archive_record_ends(data)[-2]
        path = tmp_path / ARCHIVE_NAME
        for position in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytes([data[position] ^ mask])
                path.write_bytes(data[:position] + flipped + data[position + 1 :])
                try:
                    archive = BlockArchive(path)
                    problems = archive.verify_integrity()
                    fetched = list(archive.fetch_range(0, 3))
                except (PersistError, ValidationError):
                    # Refused: the header, a record with anything after
                    # it, or the final record's length.
                    assert position < last + 8, position
                    continue
                # Only the final record's body can be dropped as a torn
                # tail; nothing else is let through.
                assert position >= last + 8, position
                assert archive.torn_tail_bytes == len(data) - last
                assert problems == [] and fetched == blocks[:2]
