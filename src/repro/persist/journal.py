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

Writes are fsync-batched: every append is flushed to the OS, but
``os.fsync`` runs only every ``fsync_every`` records (and on ``sync`` /
``close``), keeping the journal cheap on the hot path while bounding the
post-crash loss window.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.errors import PersistError
from repro.lifecycle.framing import _frame, _unframe
from repro.obs import runtime as _obs

PathLike = Union[str, Path]

#: Bumped on breaking changes to the record encoding.
JOURNAL_FORMAT_VERSION = 1

# -- record types ------------------------------------------------------------------

REC_RUN_START = "run_start"
REC_BLOCK = "block"
REC_ALLOC = "alloc"
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


@dataclass
class JournalRecovery:
    """Result of scanning a journal file for its valid prefix."""

    records: List[JournalRecord] = field(default_factory=list)
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
        return self.records[-1].seq + 1 if self.records else 0


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


def recover_journal(path: PathLike) -> JournalRecovery:
    """Scan a journal, returning its valid prefix and a damage report."""
    target = Path(path)
    recovery = JournalRecovery()
    if not target.exists():
        return recovery
    raw = target.read_bytes()
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            # Unterminated trailing data: the classic torn final write.
            recovery.torn_tail_bytes = len(raw) - offset
            recovery.reason = "torn trailing record (no newline)"
            break
        line = raw[offset : newline]
        try:
            record = _decode_line(line, recovery.next_seq)
        except PersistError as error:
            if newline + 1 >= len(raw):
                # A terminated-but-invalid final record is still a torn
                # tail (e.g. the process died between write and flush of
                # a partially buffered line).
                recovery.torn_tail_bytes = len(raw) - offset
                recovery.reason = f"torn final record: {error}"
            else:
                remainder = raw[offset:]
                recovery.dropped_records = remainder.count(b"\n")
                if not remainder.endswith(b"\n"):
                    recovery.torn_tail_bytes = (
                        len(remainder) - remainder.rfind(b"\n") - 1
                    )
                recovery.corrupt = True
                recovery.reason = f"mid-journal corruption: {error}"
            break
        recovery.records.append(record)
        offset = newline + 1
        recovery.valid_bytes = offset
    else:
        recovery.valid_bytes = len(raw)
    return recovery


class RunJournal:
    """Appendable journal handle with batched fsync."""

    def __init__(self, path: PathLike, fsync_every: int = 32):
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._handle = None
        self._pending_fsync = 0
        self.next_seq = 0

    @classmethod
    def open(cls, path: PathLike, fsync_every: int = 32) -> "RunJournal":
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
