"""Differential fuzz of the journal and archive openers against the
whole-file loops they replaced.

Both files are now opened by one streaming scan
(:func:`repro.lifecycle.framing._scan`) that keeps an index of the valid
prefix.  The oracle is the two loops that ran before
(:func:`tests.helpers.reference_recover_journal` /
``reference_load_archive``): read every byte, split at newlines, keep
every decoded record.  Files built from the framing tests' strategies are
cut at any byte, have bytes flipped and bytes inserted, and the scan must
reach the oracle's exact verdict — the records kept, the byte counts,
the mid-file verdict, the archive's truncation point and its raise.
Every outcome is a value or a :class:`PersistError`, never another
exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PersistError
from repro.lifecycle import ARCHIVE_NAME, BlockArchive
from repro.lifecycle.framing import _frame
from repro.persist.journal import JournalRecord, recover_journal
from tests.helpers import reference_load_archive, reference_recover_journal
from tests.property.test_framing import archive_batches, archive_body, finite, payloads

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
    return b"".join(_frame(archive_body(*pair)) for pair in draw(archive_batches()))


#: Inserted bytes lean towards the ones that move or forge record boundaries.
inserts = st.binary(min_size=1, max_size=8) | st.sampled_from(
    [b"\n", b"}\n", b'{"crc":"00000000"}\n', b"\n\n"]
)


@st.composite
def damaged(draw, files):
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
    @given(data=damaged(journal_bytes()))
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
    @given(data=damaged(archive_bytes()))
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

