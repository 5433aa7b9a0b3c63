"""Differential tests for the journal and archive record framing.

:mod:`repro.lifecycle.framing` composes a journal line from the
canonical encodings of its members and checks the CRC over the bytes it
read.  The oracle is the encoder and the CRC check the journal ran
before that (:func:`tests.helpers.reference_frame` /
``reference_unframe``): encode the whole record twice, re-encode every
record read.  The cold archive's binary records
(:mod:`repro.lifecycle.archive`) have theirs in an encoder that spells
the layout out field by field (:func:`tests.helpers.reference_archive_bytes`).
New bytes must equal oracle bytes for anything either writer can be
handed, every single-bit flip must still be caught with the same
torn-tail / mid-file verdict, and files written through the oracle must
load as the files this code writes.
"""

import json
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block
from repro.core.errors import PersistError
from repro.core.metadata import MetadataItem
from repro.core.serialization import block_to_dict
from repro.lifecycle import ARCHIVE_NAME, BlockArchive, CheckpointRecord
from repro.lifecycle.archive import _check_record
from repro.lifecycle.framing import _frame, _unframe
from repro.persist.journal import (
    JOURNAL_FORMAT_VERSION,
    REC_BLOCK,
    JournalRecord,
    RunJournal,
    _decode_line,
    recover_journal,
)
from repro.persist.resume import STORE_NAME
from tests.helpers import (
    ARCHIVE_HEADER,
    archive_record_ends,
    reference_archive_bytes,
    reference_archive_record,
    reference_frame,
    reference_unframe,
    stored_chain,
)

pytestmark = pytest.mark.fastpath

#: A second journal record type beside blocks; the framing takes any.
REC_CHECKPOINT = "checkpoint"

#: Bytes that would be the CRC member if a quote inside a string were not
#: escaped on disk.
CRC_LOOKALIKE = ',"crc":"00000000"'

finite = st.floats(allow_nan=False)
keys = st.sampled_from(["crc", "payload", "v"]) | st.text(max_size=6)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite
    | st.text(max_size=12)
    | st.just(CRC_LOOKALIKE)
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)
payloads = st.dictionaries(keys, values, max_size=5)


def journal_body(record: JournalRecord) -> dict:
    return {
        "v": JOURNAL_FORMAT_VERSION,
        "seq": record.seq,
        "type": record.type,
        "clock": record.clock,
        "payload": record.payload,
    }


class TestJournalRecords:
    @settings(max_examples=200, deadline=None)
    @given(
        seq=st.integers(min_value=0, max_value=2**40),
        type_=st.text(max_size=10),
        clock=finite,
        payload=payloads,
    )
    def test_bytes_equal_the_oracle_and_round_trip(self, seq, type_, clock, payload):
        record = JournalRecord(seq=seq, type=type_, clock=clock, payload=payload)
        encoded = record.encode()
        assert encoded == reference_frame(journal_body(record))
        assert _decode_line(encoded[:-1], seq) == record
        assert reference_unframe(encoded[:-1]) == journal_body(record)

    def test_nested_crc_members_either_side_of_the_real_one(self):
        body = {"a": {"crc": "deadbeef"}, "payload": {"crc": "deadbeef"}, "seq": 0}
        line = _frame(body)
        assert line == reference_frame(body)
        assert line.count(b'"crc":"') == 3
        assert _unframe(line[:-1], "journal", "seq") == body

    @pytest.mark.parametrize("crc", [None, 7, "", "zz", "\ud800", "é" * 8])
    def test_malformed_crc_values_are_mismatches(self, crc):
        line = json.dumps({"crc": crc, "seq": 0}, separators=(",", ":")).encode()
        with pytest.raises(PersistError, match="CRC mismatch"):
            _unframe(line, "journal", "seq")


# -- archive records -------------------------------------------------------------------

hexes = st.text("0123456789abcdef", max_size=16)
node_ids = st.lists(st.integers(min_value=0, max_value=50), max_size=3).map(tuple)
items = st.builds(
    MetadataItem,
    data_id=hexes,
    data_type=st.text(max_size=8),
    created_at=st.floats(min_value=0, max_value=1e9),
    location=st.text(max_size=8) | st.just(CRC_LOOKALIKE),
    producer=st.integers(min_value=0, max_value=50),
    producer_address=hexes,
    producer_public_key_hex=hexes,
    signature_hex=hexes,
    valid_time_minutes=st.floats(min_value=0.001, max_value=1e6),
    properties=st.text(max_size=8),
    size_bytes=st.integers(min_value=1, max_value=10**9),
    storing_nodes=node_ids,
)


@st.composite
def archive_batches(draw):
    """1–3 contiguous blocks from index 0, each with or without a pinned
    checkpoint record (chain-valid they are not; the archive does not ask)."""
    batch = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        block = Block(
            index=index,
            timestamp=draw(st.floats(min_value=0, max_value=1e9)),
            previous_hash=draw(hexes),
            pos_hash=draw(hexes),
            miner=draw(st.integers(min_value=-1, max_value=50)),
            miner_address=draw(st.text(max_size=8)),
            hit=draw(st.integers(min_value=0, max_value=2**64)),
            target_b=draw(st.floats(allow_nan=False, allow_infinity=False)),
            metadata_items=tuple(draw(st.lists(items, max_size=2))),
            storing_nodes=draw(node_ids),
            previous_storing_nodes=draw(node_ids),
            recent_cache_nodes=draw(node_ids),
        )
        checkpoint = None
        if draw(st.booleans()):
            checkpoint = CheckpointRecord(
                index=index,
                block_hash=block.current_hash,
                ledger_digest=draw(hexes),
                stake_summary=tuple(
                    (node, repr(draw(finite))) for node in draw(node_ids)
                ),
                timestamp=block.timestamp,
            )
        batch.append((block, checkpoint))
    return batch


class TestArchiveRecords:
    @settings(max_examples=100, deadline=None)
    @given(batch=archive_batches())
    def test_bytes_equal_the_oracle_and_round_trip(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("archive") / ARCHIVE_NAME
        BlockArchive(path).append_many(batch)
        assert path.read_bytes() == reference_archive_bytes(batch)
        reopened = BlockArchive(path)
        blocks = [block for block, _ in batch]
        assert [
            next(reopened.fetch_range(block.index, block.index + 1)) for block in blocks
        ] == blocks
        assert list(reopened.fetch_range(0, len(blocks))) == blocks
        assert reopened.checkpoints() == {
            checkpoint.index: checkpoint for _, checkpoint in batch if checkpoint
        }


# -- damage ----------------------------------------------------------------------------


def _flipped(data: bytes, stride: int = 1):
    """``(byte position, data with one bit flipped)`` for every
    ``stride``-th bit of ``data``."""
    for bit in range(0, len(data) * 8, stride):
        position, mask = divmod(bit, 8)
        flipped = data[position] ^ (1 << mask)
        yield position, data[:position] + bytes([flipped]) + data[position + 1 :]


def _flips(line: bytes, stride: int = 1):
    """``line`` with one bit flipped, for every ``stride``-th bit — except
    flips that make or unmake a newline, which move record boundaries."""
    for position, flipped in _flipped(line, stride):
        if flipped[position] != 0x0A:
            yield flipped


def _records(path):
    """The archive file at ``path`` as its header and its records."""
    data = path.read_bytes()
    ends = archive_record_ends(data)
    starts = [len(ARCHIVE_HEADER)] + ends[:-1]
    return data[: len(ARCHIVE_HEADER)], [data[a:b] for a, b in zip(starts, ends)]


def _accepts(decode, line: bytes) -> bool:
    try:
        decode(line)
    except PersistError:
        return False
    return True


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 48-block lifecycle chain in a store, an item in every fifth block."""
    directory = tmp_path_factory.mktemp("framing")
    chain, store = stored_chain(directory / STORE_NAME, 48, item_every=5)
    yield chain, store
    store.close()


@pytest.fixture(scope="module")
def archived(world):
    """The (block, checkpoint) pairs compaction would archive."""
    chain, store = world
    pairs = [
        (store.block_by_index(index), chain.checkpoints.get(index))
        for index in range(chain.first_retained_index)
    ]
    assert any(checkpoint for _, checkpoint in pairs)
    assert any(block.metadata_items for block, _ in pairs)
    return pairs


def journal_records(pairs):
    """A block record per block and a checkpoint record per pinned one."""
    records = []
    for block, checkpoint in pairs:
        payload = {"index": block.index, "block": block_to_dict(block), "é": "ü"}
        records.append((REC_BLOCK, block.timestamp, payload))
        if checkpoint is not None:
            records.append((REC_CHECKPOINT, block.timestamp, checkpoint.to_dict()))
    return records


class TestBitFlips:
    def test_every_single_bit_flip_in_a_line_is_rejected(self, archived):
        block, checkpoint = next(pair for pair in archived if pair[1] and pair[0].index)
        line = JournalRecord(
            seq=3, type=REC_BLOCK, clock=1e-7, payload={"é": [block_to_dict(block)]}
        ).encode()[:-1]
        assert _accepts(reference_unframe, line)
        assert _accepts(lambda raw: _unframe(raw, "journal", "seq"), line)
        for flipped in _flips(line):
            assert not _accepts(lambda raw: _unframe(raw, "journal", "seq"), flipped)
            # The oracle re-encodes what it parsed, so it forgives the
            # few flips that only change how a value is spelt (the
            # case of a hex digit in a \\u escape, of an exponent's e).
            if _accepts(reference_unframe, flipped):
                assert reference_unframe(flipped) == reference_unframe(line)
        # An archive record has no spelling to forgive: every flip, in its
        # length and its CRCs too, is rejected.
        record = reference_archive_record(block, checkpoint)
        assert _check_record(record, block.index)[0] == block.current_hash
        for _, flipped in _flipped(record):
            assert not _accepts(lambda raw: _check_record(raw, block.index), flipped)

    def test_journal_verdicts_torn_tail_versus_mid_file(self, tmp_path, archived):
        path = tmp_path / "journal.jsonl"
        with closing(RunJournal.open(path)) as journal:
            for type_, clock, payload in journal_records(archived[:3]):
                journal.append(type_, clock, payload)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        for flipped in _flips(lines[1][:-1], stride=5):
            path.write_bytes(lines[0] + flipped + b"\n" + b"".join(lines[2:]))
            recovery = recover_journal(path)
            assert recovery.corrupt
            assert len(recovery.records) == 1
            assert recovery.valid_bytes == len(lines[0])
            assert recovery.dropped_records == len(lines) - 1
        for flipped in _flips(lines[-1][:-1], stride=5):
            path.write_bytes(b"".join(lines[:-1]) + flipped + b"\n")
            recovery = recover_journal(path)
            assert not recovery.corrupt
            assert len(recovery.records) == len(lines) - 1
            assert recovery.torn_tail_bytes == len(lines[-1])

    def test_archive_verdicts_torn_tail_versus_mid_file(self, tmp_path, archived):
        path = tmp_path / ARCHIVE_NAME
        BlockArchive(path).append_many(archived[:3])
        header, records = _records(path)
        assert len(records) == 3
        for _, flipped in _flipped(records[1], stride=5):
            path.write_bytes(header + records[0] + flipped + records[2])
            with pytest.raises(PersistError, match="corrupt mid-file"):
                BlockArchive(path)
        for position, flipped in _flipped(records[2], stride=5):
            path.write_bytes(header + records[0] + records[1] + flipped)
            if position < 8:
                # A damaged length bounds no record: what follows it is
                # not known to be one torn write, so it is never dropped.
                with pytest.raises(PersistError, match="corrupt mid-file"):
                    BlockArchive(path)
                continue
            reopened = BlockArchive(path)
            assert reopened.archived_below == 2
            assert reopened.torn_tail_bytes == len(records[2])


# -- files written by the oracle -------------------------------------------------------


class TestOracleWrittenFiles:
    def test_archive_loads_like_one_this_code_wrote(self, tmp_path, archived):
        ours, theirs = tmp_path / "ours.bin", tmp_path / "theirs.bin"
        written = BlockArchive(ours)
        written.append_many(archived)
        theirs.write_bytes(reference_archive_bytes(archived))
        assert ours.read_bytes() == theirs.read_bytes()
        loaded = BlockArchive(theirs)
        assert loaded._offsets == written._offsets == BlockArchive(ours)._offsets
        assert loaded.checkpoints() == written.checkpoints()
        ours_stats, theirs_stats = written.stats(), loaded.stats()
        assert ours_stats.checkpoints and ours_stats.blocks == len(archived)
        for name in ("blocks", "bytes", "archived_below", "checkpoints", "torn_tail_bytes"):
            assert getattr(ours_stats, name) == getattr(theirs_stats, name)
        assert loaded.verify_integrity() == []
        assert list(loaded.fetch_range(0, len(archived))) == [b for b, _ in archived]

    def test_journal_loads_like_one_this_code_wrote(self, tmp_path, archived):
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
        expected = []
        with closing(RunJournal.open(ours)) as journal:
            for type_, clock, payload in journal_records(archived):
                seq = journal.append(type_, clock, payload)
                expected.append(
                    JournalRecord(seq=seq, type=type_, clock=clock, payload=payload)
                )
        theirs.write_bytes(
            b"".join(reference_frame(journal_body(record)) for record in expected)
        )
        assert ours.read_bytes() == theirs.read_bytes()
        recovery = recover_journal(theirs)
        assert not recovery.corrupt and not recovery.torn_tail_bytes
        assert recovery.records == expected
        assert recovery.valid_bytes == theirs.stat().st_size
        assert {record.type for record in expected} == {REC_BLOCK, REC_CHECKPOINT}
        with closing(RunJournal.open(theirs)) as journal:
            assert journal.next_seq == len(expected)
