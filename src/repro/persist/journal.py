"""Append-only, CRC-checked JSONL write-ahead run journal.

Every durable run directory contains one ``journal.jsonl``: a sequence of
newline-terminated JSON records, each carrying a sequence number, the
simulation clock, a record type, a payload, and a CRC-32 over the rest
of the line (:mod:`repro.lifecycle.framing`, shared with the cold
archive).  The journal is *write-ahead*
relative to the SQLite chain store: a block is journaled (and the journal
flushed) before the store row is written, so after a crash the store can
always be caught up from the journal.

Crash-tolerance contract (:func:`recover_journal`):

* a missing or zero-length file is an empty, healthy journal;
* a **torn tail** — a final record the process died while writing
  (unterminated, truncated, or CRC-failing last line) — is dropped and
  reported, and the preceding prefix is kept;
* a structural or CRC failure *before* the last record marks the journal
  **corrupt**: the valid prefix is still returned, together with a count
  of the records that had to be dropped, and callers (``repro inspect``)
  surface the damage instead of silently proceeding.

Recovery is the framing module's one streaming pass (shared with the
cold archive): the prefix comes back as an index of offsets, and a
record is decoded from the file only when read.

Writes are fsync-batched: every append is flushed to the OS, but
``os.fsync`` runs only every ``fsync_every`` records (and on ``sync`` /
``close``), keeping the journal cheap on the hot path while bounding the
post-crash loss window.
"""

from __future__ import annotations

import operator
import os
import time
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Iterator, Optional, Union

from repro.core.errors import PersistError
from repro.lifecycle.framing import _frame, _scan, _Scan, _unframe
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

#: Bumped on breaking changes to the record encoding.
JOURNAL_FORMAT_VERSION = 1

#: Records per ``os.fsync`` of the journal by default, and block puts per
#: commit of the chain store that trails it (:mod:`repro.persist.chainstore`).
WRITE_BATCH = 32

# -- record types ------------------------------------------------------------------

REC_RUN_START = "run_start"
REC_BLOCK = "block"
REC_REORG = "reorg"
REC_CHECKPOINT = "checkpoint"
REC_COMPLETE = "run_complete"


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    seq: int
    type: str
    clock: float
    payload: Dict[str, Any]

    def encode(self) -> bytes:
        return _frame(
            {
                "v": JOURNAL_FORMAT_VERSION,
                "seq": self.seq,
                "type": self.type,
                "clock": self.clock,
                "payload": self.payload,
            }
        )


class _JournalRecords(Sequence[JournalRecord]):
    """The valid prefix of a journal, as the index its scan left.

    ``len``, indexing and one-pass iteration work, and it compares equal
    to a list of the same records, but a record is read back from the
    file and decoded only when asked for.  Every read re-checks the
    line's length and CRC-32 against the scan, and its framing CRC and
    sequence number, so a file changed under the index raises
    :class:`PersistError` instead of returning what it now holds.
    """

    def __init__(self, path: Path, scan: _Scan):
        self._path = path
        self._offsets = scan.offsets
        self._crcs = scan.crcs
        self._end = scan.valid_bytes

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> JournalRecord:  # type: ignore[override]
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("journal record index out of range")
        with self._open() as handle:
            return self._read(handle, position)

    def __iter__(self) -> Iterator[JournalRecord]:
        if not self._offsets:
            return
        with self._open() as handle:
            for position in range(len(self)):
                yield self._read(handle, position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def _open(self) -> BinaryIO:
        try:
            return open(self._path, "rb")
        except OSError as error:
            raise PersistError(f"journal {self._path} unreadable: {error}") from error

    def _read(self, handle: BinaryIO, position: int) -> JournalRecord:
        start = self._offsets[position]
        stop = (
            self._offsets[position + 1] if position + 1 < len(self) else self._end
        )
        handle.seek(start)
        line = handle.read(stop - start)
        if len(line) != stop - start or zlib.crc32(line) != self._crcs[position]:
            raise PersistError(
                f"journal record {position} in {self._path} changed since it was scanned"
            )
        return _decode_line(line[:-1], position)


@dataclass
class JournalRecovery:
    """Result of scanning a journal file for its valid prefix."""

    #: The valid prefix, read back from the file on access.
    records: Sequence[JournalRecord] = field(default_factory=list)
    #: Byte length of the valid prefix (safe truncation point).
    valid_bytes: int = 0
    #: Complete-but-invalid records dropped (CRC/structure failures).
    dropped_records: int = 0
    #: Bytes of unterminated/torn trailing data dropped.
    torn_tail_bytes: int = 0
    #: True when damage occurred *before* the final record — i.e. more
    #: than an interrupted last write was lost.
    corrupt: bool = False
    reason: Optional[str] = None

    @property
    def next_seq(self) -> int:
        # The scan holds record ``seq`` at position ``seq``.
        return len(self.records)


def _decode_line(line: bytes, expected_seq: int) -> JournalRecord:
    body = _unframe(line, "journal", "seq")
    if body.get("v") != JOURNAL_FORMAT_VERSION:
        raise PersistError(f"unsupported journal format {body.get('v')!r}")
    try:
        record = JournalRecord(
            seq=int(body["seq"]),
            type=str(body["type"]),
            clock=float(body["clock"]),
            payload=dict(body["payload"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistError(f"malformed journal record: {error}") from error
    if record.seq != expected_seq:
        raise PersistError(
            f"journal sequence break: expected {expected_seq}, got {record.seq}"
        )
    return record


def recover_journal(
    path: PathLike, visit: Optional[Callable[[int, JournalRecord], None]] = None
) -> JournalRecovery:
    """Scan a journal once, returning its valid prefix and a damage report.

    ``visit(position, record)``, if given, sees every valid record in
    order during the scan, so a caller that folds the records into a
    summary needs no second pass over the file.
    """
    scan = _scan(path, _decode_line, visit)
    if scan.corrupt:
        reason: Optional[str] = f"mid-journal corruption: {scan.error}"
    elif scan.error is not None:
        # A terminated-but-invalid final record is still a torn tail
        # (e.g. the process died between write and flush of a partially
        # buffered line).
        reason = f"torn final record: {scan.error}"
    elif scan.torn_tail_bytes:
        reason = "torn trailing record (no newline)"
    else:
        reason = None
    return JournalRecovery(
        records=_JournalRecords(Path(path), scan),
        valid_bytes=scan.valid_bytes,
        dropped_records=scan.dropped_records,
        torn_tail_bytes=scan.torn_tail_bytes,
        corrupt=scan.corrupt,
        reason=reason,
    )


class RunJournal:
    """Appendable journal handle with batched fsync."""

    def __init__(self, path: PathLike, fsync_every: int = WRITE_BATCH):
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._handle = None
        self._pending_fsync = 0
        self.next_seq = 0

    @classmethod
    def open(cls, path: PathLike, fsync_every: int = WRITE_BATCH) -> "RunJournal":
        """Open for appending, truncating any torn tail first.

        Raises :class:`PersistError` if the journal is corrupt before its
        final record — an operator must inspect it rather than have a
        writer silently amputate history.
        """
        journal = cls(path, fsync_every=fsync_every)
        recovery = recover_journal(path)
        if recovery.corrupt:
            raise PersistError(
                f"journal {journal.path} is corrupt mid-file: {recovery.reason}"
            )
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(journal.path, "ab")
        if recovery.torn_tail_bytes:
            handle.truncate(recovery.valid_bytes)
            handle.seek(recovery.valid_bytes)
        journal._handle = handle
        journal.next_seq = recovery.next_seq
        return journal

    def append(self, type_: str, clock: float, payload: Dict[str, Any]) -> int:
        """Append one record; returns its sequence number."""
        if self._handle is None:
            raise PersistError("journal is closed")
        record = JournalRecord(
            seq=self.next_seq, type=type_, clock=clock, payload=payload
        )
        encoded = record.encode()
        self._handle.write(encoded)
        self._handle.flush()
        if _obs.is_enabled():
            _obs.add("persist.journal_records")
            _obs.observe("persist.journal_record_bytes", len(encoded))
        self.next_seq += 1
        self._pending_fsync += 1
        if self._pending_fsync >= self.fsync_every:
            self.sync()
        return record.seq

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        if self._handle is None:
            return
        self._handle.flush()
        if _obs.is_enabled():
            start = time.perf_counter()
            with _obs.span("persist.fsync", "persist"):
                os.fsync(self._handle.fileno())
            _obs.add("persist.fsyncs")
            _obs.observe("persist.fsync_seconds", time.perf_counter() - start)
        else:
            os.fsync(self._handle.fileno())
        self._pending_fsync = 0

    def close(self) -> None:
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
